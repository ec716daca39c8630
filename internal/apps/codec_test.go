package apps_test

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"repro/internal/apps/comd"
	"repro/internal/apps/wavempi"
)

// The gob path core uses for programs without the binary-marshaler pair:
// these method-less twins gob-encode exactly the exported fields.
type (
	gobWave wavempi.Wave
	gobCoMD comd.CoMD
)

var (
	negZero = math.Copysign(0, -1)
	nanBits = math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN with a payload
	posInf  = math.Inf(1)
	negInf  = math.Inf(-1)
)

// The special states set every exported field away from the factory
// default, so a field the decoder skips cannot pass unnoticed.
func specialWave() *wavempi.Wave {
	w := wavempi.New()
	w.ScaleSteps(0.01)
	w.C, w.Dt, w.ComputeNsPerPoint = 1.25, 1e-3, 12.5
	w.Seed = -77
	w.Iter = 3
	w.UPrev = []float64{1.5, negZero, nanBits, posInf, negInf, 0, math.SmallestNonzeroFloat64}
	w.U = []float64{negInf, -2.25, negZero, nanBits, posInf}
	w.Checked = math.Pi
	return w
}

func specialCoMD() *comd.CoMD {
	c := comd.New()
	c.ScaleSteps(0.1)
	c.BoxSide, c.Cutoff, c.Dt, c.ComputeNsPerPair = 5.5, 1.75, 1e-4, 3
	c.Seed = 5
	c.Iter = 11
	c.Atoms = []comd.Particle{
		{X: 1, Y: 2, Z: 3, Vx: -0.5, Vy: 0.25, Vz: math.MaxFloat64},
		{X: negZero, Y: nanBits, Z: posInf, Vx: negInf, Vy: 0, Vz: -1e-300},
	}
	c.KineticE = 0.125
	c.PotentialE = -3.5
	return c
}

// sameBits reports whether every exported field of a and b is equal,
// floats compared by their IEEE-754 bits. With gobZeroSign set, a float
// struct field may differ only in the sign of zero: gob does not send a
// zero-valued field, so it restores -0 there as +0. Elements of a
// []float64 go through gob bit for bit and get no such allowance.
func sameBits(a, b reflect.Value, gobZeroSign bool) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return sameBits(a.Elem(), b.Elem(), gobZeroSign)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !a.Type().Field(i).IsExported() {
				continue
			}
			fa, fb := a.Field(i), b.Field(i)
			if fa.Kind() == reflect.Float64 && gobZeroSign && fa.Float() == 0 && fb.Float() == 0 {
				continue
			}
			if !sameBits(fa, fb, gobZeroSign) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i), gobZeroSign) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Interface() == b.Interface()
	}
}

type binaryState interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// checkCodec round-trips state through MarshalBinary into a fresh factory
// instance, compares it with the original and with the gob path's
// decoding (gobIn encoded, decoded into the fresh gobOut), and feeds
// UnmarshalBinary every truncation.
func checkCodec(t *testing.T, state, fresh binaryState, gobIn, gobOut any) {
	t.Helper()
	raw, err := state.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if !sameBits(reflect.ValueOf(fresh), reflect.ValueOf(state), false) {
		t.Fatalf("binary round trip changed the state:\n got %+v\nwant %+v", fresh, state)
	}
	again, err := fresh.MarshalBinary()
	if err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("re-encoding the decoded state differs (err %v)", err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobIn); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(gobOut); err != nil {
		t.Fatal(err)
	}
	if !sameBits(reflect.ValueOf(fresh), reflect.ValueOf(gobOut), true) {
		t.Fatalf("binary and gob decodings differ:\nbinary %+v\n   gob %+v", fresh, gobOut)
	}

	for n := 0; n < len(raw); n++ {
		if err := fresh.UnmarshalBinary(raw[:n]); err == nil {
			t.Fatalf("state truncated to %d of %d bytes accepted", n, len(raw))
		}
	}
	if err := fresh.UnmarshalBinary(append(raw, 0)); err == nil {
		t.Fatal("state with a trailing byte accepted")
	}
}

func TestWaveBinaryCodec(t *testing.T) {
	w := specialWave()
	checkCodec(t, w, wavempi.New(), (*gobWave)(w), (*gobWave)(wavempi.New()))
}

func TestCoMDBinaryCodec(t *testing.T) {
	c := specialCoMD()
	checkCodec(t, c, comd.New(), (*gobCoMD)(c), (*gobCoMD)(comd.New()))
}

// A state with empty slices decodes to nil slices, as gob leaves a fresh
// instance's.
func TestBinaryCodecEmptySlices(t *testing.T) {
	w := wavempi.New()
	raw, _ := w.MarshalBinary()
	got := wavempi.New()
	if err := got.UnmarshalBinary(raw); err != nil || got.U != nil || got.UPrev != nil {
		t.Fatalf("empty wave state: %+v, %v", got, err)
	}
	c := comd.New()
	c.Atoms = []comd.Particle{}
	raw, _ = c.MarshalBinary()
	gc := comd.New()
	if err := gc.UnmarshalBinary(raw); err != nil || gc.Atoms != nil {
		t.Fatalf("empty comd state: %+v, %v", gc, err)
	}
}
