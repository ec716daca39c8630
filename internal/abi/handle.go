// Package abi defines the proposed standard MPI ABI that the paper's
// three-legged stool revolves around: the opaque handle representation,
// the values of predefined constants, the status object layout, error
// classes, and the function table every layer implements.
//
// It is the analog of the MPI ABI working group's standardized mpi.h: an
// application binds to this package once ("compiled once") and can then run
// over any implementation stack — a native binding, the Mukautuva shim, or
// the MANA checkpointing wrapper — without change ("runs everywhere").
//
// In the README's layer diagram this package is the surface the
// applications row compiles against and the top edge of the
// bindings-and-translator row: the standardized ABI of Section 4.1.
package abi

import "fmt"

// Handle is the standard ABI's opaque object handle: a 64-bit integer with
// the object class in the top byte and a payload below. Predefined handles
// have payloads below PredefinedLimit; handles minted at runtime use larger
// payloads. Applications must treat handles as opaque.
//
// This mirrors the MPI ABI proposal's design: handles are pointer-sized
// integers whose predefined values are fixed small constants, so they can
// be baked into a binary at compile time and still be meaningful to any
// compliant implementation. The proposal's trick of encoding a predefined
// datatype's size inside its handle bits is reproduced (see TypeHandle).
type Handle uint64

// Class is the object class carried in a handle's top byte.
type Class uint8

// Object classes.
const (
	ClassNone Class = iota
	ClassComm
	ClassGroup
	ClassType
	ClassOp
	ClassRequest
)

var classNames = [...]string{
	ClassNone: "none", ClassComm: "comm", ClassGroup: "group",
	ClassType: "type", ClassOp: "op", ClassRequest: "request",
}

// String names the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

const (
	classShift = 56
	payloadMax = (uint64(1) << classShift) - 1

	// PredefinedLimit separates predefined handle payloads (below) from
	// runtime-allocated ones (at or above).
	PredefinedLimit = 0x10000
)

// MakeHandle assembles a handle from class and payload.
func MakeHandle(c Class, payload uint64) Handle {
	if payload > payloadMax {
		panic(fmt.Sprintf("abi: handle payload %#x overflows", payload))
	}
	return Handle(uint64(c)<<classShift | payload)
}

// HandleClass extracts the object class.
func (h Handle) HandleClass() Class { return Class(h >> classShift) }

// Payload extracts the payload bits.
func (h Handle) Payload() uint64 { return uint64(h) & payloadMax }

// Predefined reports whether the handle is one of the ABI's fixed
// compile-time constants.
func (h Handle) Predefined() bool { return h.Payload() < PredefinedLimit }

// IsNull reports whether the handle is the null handle of its class
// (payload zero).
func (h Handle) IsNull() bool { return h.Payload() == 0 }

// String renders the handle for diagnostics.
func (h Handle) String() string {
	return fmt.Sprintf("%v:%#x", h.HandleClass(), h.Payload())
}

// Predefined handles. Null handles are payload 0 of their class.
var (
	HandleNull  = Handle(0)
	CommNull    = MakeHandle(ClassComm, 0)
	CommWorld   = MakeHandle(ClassComm, 1)
	CommSelf    = MakeHandle(ClassComm, 2)
	GroupNull   = MakeHandle(ClassGroup, 0)
	GroupEmpty  = MakeHandle(ClassGroup, 1)
	TypeNull    = MakeHandle(ClassType, 0)
	OpNull      = MakeHandle(ClassOp, 0)
	RequestNull = MakeHandle(ClassRequest, 0)
)
