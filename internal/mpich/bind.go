package mpich

import (
	"repro/internal/abi"
	"repro/internal/ops"
	"repro/internal/types"
)

// Binding adapts a Proc to the generic function-table shape with zero
// translation: handles cross the boundary bit-for-bit (widened int32s),
// constants resolve to MPICH's native values, and error codes map straight
// from MPICH's table. This is the analog of compiling the application
// against MPICH's own mpi.h — the baseline configuration in the paper's
// figures. An application bound this way cannot be moved to another MPI
// implementation (that is the paper's point); use the Mukautuva shim for
// the portable standard-ABI stack.
type Binding struct {
	p *Proc
}

// Bind wraps a Proc in its native function-table binding.
func Bind(p *Proc) *Binding { return &Binding{p: p} }

var _ abi.FuncTable = (*Binding)(nil)

// Widen embeds a native handle in the opaque 64-bit slot. The value does
// NOT follow the standard ABI encoding — it is MPICH's own bit pattern,
// exactly as a natively compiled binary would hold.
func Widen(h Handle) abi.Handle { return abi.Handle(uint64(uint32(int32(h)))) }

// toNative narrows an opaque handle back to MPICH's representation.
func toNative(h abi.Handle) Handle { return Handle(int32(uint32(h))) }

// codeErr converts an MPICH int return code into an error value carrying
// the equivalent standard error class.
func codeErr(code int) error {
	if code == Success {
		return nil
	}
	return abi.Errorf(ClassOfCode(code), "mpich", "%s", ErrorString(code))
}

// ClassOfCode maps MPICH error codes to standard ABI error classes (the
// MPI_Error_class analog, exported for the wrap adapter).
func ClassOfCode(code int) abi.ErrClass {
	switch code {
	case Success:
		return abi.ErrSuccess
	case ErrBuffer:
		return abi.ErrBuffer
	case ErrCount:
		return abi.ErrCount
	case ErrType:
		return abi.ErrType
	case ErrTag:
		return abi.ErrTag
	case ErrComm:
		return abi.ErrComm
	case ErrRank:
		return abi.ErrRank
	case ErrRoot:
		return abi.ErrRoot
	case ErrGroup:
		return abi.ErrGroup
	case ErrOp:
		return abi.ErrOp
	case ErrArg:
		return abi.ErrArg
	case ErrTruncate:
		return abi.ErrTruncate
	case ErrRequest:
		return abi.ErrRequest
	case ErrPending:
		return abi.ErrPending
	case ErrIntern:
		return abi.ErrIntern
	case ErrProcFailed:
		return abi.ErrProcFailed
	case ErrRevoked:
		return abi.ErrRevoked
	default:
		return abi.ErrOther
	}
}

// CodeOfClass is the reverse direction: the MPICH code a standard error
// class surfaces as. Translation layers that present MPICH's ABI upward
// (internal/wi4mpi) and the cross-implementation round-trip tests use
// it; classes MPICH's table does not distinguish collapse to ErrOther,
// mirroring what a real errhandler sees.
func CodeOfClass(c abi.ErrClass) int {
	switch c {
	case abi.ErrSuccess:
		return Success
	case abi.ErrBuffer:
		return ErrBuffer
	case abi.ErrCount:
		return ErrCount
	case abi.ErrType:
		return ErrType
	case abi.ErrTag:
		return ErrTag
	case abi.ErrComm:
		return ErrComm
	case abi.ErrRank:
		return ErrRank
	case abi.ErrRoot:
		return ErrRoot
	case abi.ErrGroup:
		return ErrGroup
	case abi.ErrOp:
		return ErrOp
	case abi.ErrArg:
		return ErrArg
	case abi.ErrTruncate:
		return ErrTruncate
	case abi.ErrRequest:
		return ErrRequest
	case abi.ErrPending:
		return ErrPending
	case abi.ErrIntern:
		return ErrIntern
	case abi.ErrProcFailed:
		return ErrProcFailed
	case abi.ErrRevoked:
		return ErrRevoked
	default:
		return ErrOther
	}
}

// MPICH's vocabulary as seen through the opaque 64-bit slot: what the
// native binding hands an application, and what a translator presenting
// MPICH's ABI upward (internal/wi4mpi) speaks.

// Lookup resolves a predefined object constant to MPICH's handle value.
func Lookup(s abi.Sym) abi.Handle {
	switch s {
	case abi.SymCommWorld:
		return Widen(CommWorld)
	case abi.SymCommSelf:
		return Widen(CommSelf)
	case abi.SymCommNull:
		return Widen(CommNull)
	case abi.SymGroupNull:
		return Widen(GroupNull)
	case abi.SymGroupEmpty:
		return Widen(GroupEmpty)
	case abi.SymTypeNull:
		return Widen(DatatypeNull)
	case abi.SymOpNull:
		return Widen(OpNull)
	case abi.SymRequestNull:
		return Widen(RequestNull)
	}
	if k, ok := abi.KindForSym(s); ok {
		return Widen(TypeHandle(k))
	}
	if op, ok := abi.OpForSym(s); ok {
		return Widen(OpHandle(op))
	}
	return Widen(DatatypeNull)
}

// LookupInt resolves an integer constant to MPICH's value.
func LookupInt(s abi.IntSym) int {
	switch s {
	case abi.IntAnySource:
		return AnySource
	case abi.IntAnyTag:
		return AnyTag
	case abi.IntProcNull:
		return ProcNull
	case abi.IntRoot:
		return Root
	case abi.IntUndefined:
		return Undefined
	case abi.IntTagUB:
		return TagUB
	}
	return Undefined
}

// ObjectClass decodes the object class from a widened MPICH handle's kind
// bits. Values that are not a widened 32-bit handle, or whose kind bits
// name no class, are ClassNone.
func ObjectClass(h abi.Handle) abi.Class {
	n := toNative(h)
	if Widen(n) != h {
		return abi.ClassNone
	}
	switch n.class() {
	case classComm:
		return abi.ClassComm
	case classGroup:
		return abi.ClassGroup
	case classDatatype:
		return abi.ClassType
	case classOp:
		return abi.ClassOp
	case classRequest:
		return abi.ClassRequest
	}
	return abi.ClassNone
}

// statusOut converts MPICH's status layout into the standard layout.
// Source stays an MPICH-convention value (comm rank, or MPICH's PROC_NULL
// sentinel), which is correct for a natively compiled application.
func statusOut(ms *Status, as *abi.Status) {
	if as == nil {
		return
	}
	as.Source = ms.Source
	as.Tag = ms.Tag
	as.Error = ms.Error
	as.CountBytes = ms.CountBytes()
	as.Cancelled = ms.IsCancelled()
}

// ImplName identifies the lower library.
func (b *Binding) ImplName() string { return "mpich" }

// Lookup resolves predefined constants to MPICH's native handle values.
func (b *Binding) Lookup(s abi.Sym) abi.Handle { return Lookup(s) }

// LookupInt resolves integer constants to MPICH's native values.
func (b *Binding) LookupInt(s abi.IntSym) int { return LookupInt(s) }

// ErrClass maps an MPICH status error code to its standard class.
func (b *Binding) ErrClass(code int) abi.ErrClass { return ClassOfCode(code) }

func (b *Binding) Send(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) error {
	return codeErr(b.p.Send(buf, count, toNative(dtype), dest, tag, toNative(comm)))
}

func (b *Binding) Recv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle, st *abi.Status) error {
	var ms Status
	code := b.p.Recv(buf, count, toNative(dtype), source, tag, toNative(comm), &ms)
	statusOut(&ms, st)
	return codeErr(code)
}

func (b *Binding) Isend(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) (abi.Handle, error) {
	h, code := b.p.Isend(buf, count, toNative(dtype), dest, tag, toNative(comm))
	return Widen(h), codeErr(code)
}

func (b *Binding) Irecv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle) (abi.Handle, error) {
	h, code := b.p.Irecv(buf, count, toNative(dtype), source, tag, toNative(comm))
	return Widen(h), codeErr(code)
}

func (b *Binding) Wait(req abi.Handle, st *abi.Status) error {
	var ms Status
	code := b.p.Wait(toNative(req), &ms)
	statusOut(&ms, st)
	return codeErr(code)
}

func (b *Binding) Test(req abi.Handle, st *abi.Status) (bool, error) {
	var ms Status
	done, code := b.p.Test(toNative(req), &ms)
	if done {
		statusOut(&ms, st)
	}
	return done, codeErr(code)
}

func (b *Binding) Waitall(reqs []abi.Handle, sts []abi.Status) error {
	native := make([]Handle, len(reqs))
	for i, r := range reqs {
		native[i] = toNative(r)
	}
	var ms []Status
	if sts != nil {
		ms = make([]Status, len(reqs))
	}
	code := b.p.Waitall(native, ms)
	for i := range ms {
		statusOut(&ms[i], &sts[i])
	}
	return codeErr(code)
}

func (b *Binding) Sendrecv(sendbuf []byte, scount int, stype abi.Handle, dest, stag int,
	recvbuf []byte, rcount int, rtype abi.Handle, source, rtag int,
	comm abi.Handle, st *abi.Status) error {
	var ms Status
	code := b.p.Sendrecv(sendbuf, scount, toNative(stype), dest, stag,
		recvbuf, rcount, toNative(rtype), source, rtag, toNative(comm), &ms)
	statusOut(&ms, st)
	return codeErr(code)
}

func (b *Binding) Probe(source, tag int, comm abi.Handle, st *abi.Status) error {
	var ms Status
	code := b.p.Probe(source, tag, toNative(comm), &ms)
	statusOut(&ms, st)
	return codeErr(code)
}

func (b *Binding) Iprobe(source, tag int, comm abi.Handle, st *abi.Status) (bool, error) {
	var ms Status
	found, code := b.p.Iprobe(source, tag, toNative(comm), &ms)
	if found {
		statusOut(&ms, st)
	}
	return found, codeErr(code)
}

func (b *Binding) Barrier(comm abi.Handle) error {
	return codeErr(b.p.Barrier(toNative(comm)))
}

func (b *Binding) Bcast(buf []byte, count int, dtype abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.Bcast(buf, count, toNative(dtype), root, toNative(comm)))
}

func (b *Binding) Reduce(sendbuf, recvbuf []byte, count int, dtype, op abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.Reduce(sendbuf, recvbuf, count, toNative(dtype), toNative(op), root, toNative(comm)))
}

func (b *Binding) Allreduce(sendbuf, recvbuf []byte, count int, dtype, op abi.Handle, comm abi.Handle) error {
	return codeErr(b.p.Allreduce(sendbuf, recvbuf, count, toNative(dtype), toNative(op), toNative(comm)))
}

func (b *Binding) Gather(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.Gather(sendbuf, scount, toNative(stype), recvbuf, rcount, toNative(rtype), root, toNative(comm)))
}

func (b *Binding) Allgather(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, comm abi.Handle) error {
	return codeErr(b.p.Allgather(sendbuf, scount, toNative(stype), recvbuf, rcount, toNative(rtype), toNative(comm)))
}

func (b *Binding) Scatter(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.Scatter(sendbuf, scount, toNative(stype), recvbuf, rcount, toNative(rtype), root, toNative(comm)))
}

func (b *Binding) Alltoall(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, comm abi.Handle) error {
	return codeErr(b.p.Alltoall(sendbuf, scount, toNative(stype), recvbuf, rcount, toNative(rtype), toNative(comm)))
}

func (b *Binding) CommSize(comm abi.Handle) (int, error) {
	n, code := b.p.CommSize(toNative(comm))
	return n, codeErr(code)
}

func (b *Binding) CommRank(comm abi.Handle) (int, error) {
	r, code := b.p.CommRank(toNative(comm))
	return r, codeErr(code)
}

func (b *Binding) CommDup(comm abi.Handle) (abi.Handle, error) {
	h, code := b.p.CommDup(toNative(comm))
	return Widen(h), codeErr(code)
}

func (b *Binding) CommSplit(comm abi.Handle, color, key int) (abi.Handle, error) {
	h, code := b.p.CommSplit(toNative(comm), color, key)
	return Widen(h), codeErr(code)
}

func (b *Binding) CommCreate(comm, group abi.Handle) (abi.Handle, error) {
	h, code := b.p.CommCreate(toNative(comm), toNative(group))
	return Widen(h), codeErr(code)
}

func (b *Binding) CommGroup(comm abi.Handle) (abi.Handle, error) {
	h, code := b.p.CommGroup(toNative(comm))
	return Widen(h), codeErr(code)
}

func (b *Binding) CommFree(comm abi.Handle) error {
	return codeErr(b.p.CommFree(toNative(comm)))
}

func (b *Binding) GroupSize(group abi.Handle) (int, error) {
	n, code := b.p.GroupSize(toNative(group))
	return n, codeErr(code)
}

func (b *Binding) GroupRank(group abi.Handle) (int, error) {
	r, code := b.p.GroupRank(toNative(group))
	return r, codeErr(code)
}

func (b *Binding) GroupIncl(group abi.Handle, ranks []int) (abi.Handle, error) {
	h, code := b.p.GroupIncl(toNative(group), ranks)
	return Widen(h), codeErr(code)
}

func (b *Binding) GroupExcl(group abi.Handle, ranks []int) (abi.Handle, error) {
	h, code := b.p.GroupExcl(toNative(group), ranks)
	return Widen(h), codeErr(code)
}

func (b *Binding) GroupTranslateRanks(g1 abi.Handle, ranks []int, g2 abi.Handle) ([]int, error) {
	out, code := b.p.GroupTranslateRanks(toNative(g1), ranks, toNative(g2))
	return out, codeErr(code)
}

func (b *Binding) GroupFree(group abi.Handle) error {
	return codeErr(b.p.GroupFree(toNative(group)))
}

func (b *Binding) TypeContiguous(count int, inner abi.Handle) (abi.Handle, error) {
	h, code := b.p.TypeContiguous(count, toNative(inner))
	return Widen(h), codeErr(code)
}

func (b *Binding) TypeVector(count, blocklen, stride int, inner abi.Handle) (abi.Handle, error) {
	h, code := b.p.TypeVector(count, blocklen, stride, toNative(inner))
	return Widen(h), codeErr(code)
}

func (b *Binding) TypeIndexed(blocklens, displs []int, inner abi.Handle) (abi.Handle, error) {
	h, code := b.p.TypeIndexed(blocklens, displs, toNative(inner))
	return Widen(h), codeErr(code)
}

func (b *Binding) TypeCreateStruct(blocklens, displs []int, typs []abi.Handle) (abi.Handle, error) {
	native := make([]Handle, len(typs))
	for i, t := range typs {
		native[i] = toNative(t)
	}
	h, code := b.p.TypeCreateStruct(blocklens, displs, native)
	return Widen(h), codeErr(code)
}

func (b *Binding) TypeCommit(dtype abi.Handle) error {
	return codeErr(b.p.TypeCommit(toNative(dtype)))
}

func (b *Binding) TypeFree(dtype abi.Handle) error {
	return codeErr(b.p.TypeFree(toNative(dtype)))
}

func (b *Binding) TypeSize(dtype abi.Handle) (int, error) {
	n, code := b.p.TypeSize(toNative(dtype))
	return n, codeErr(code)
}

func (b *Binding) TypeExtent(dtype abi.Handle) (int, error) {
	n, code := b.p.TypeExtent(toNative(dtype))
	return n, codeErr(code)
}

func (b *Binding) GetCount(st *abi.Status, dtype abi.Handle) (int, error) {
	// Rebuild the native status from the standard one to reuse the native
	// GetCount logic.
	var ms Status
	ms.setCount(st.CountBytes)
	n, code := b.p.GetCount(&ms, toNative(dtype))
	return n, codeErr(code)
}

func (b *Binding) OpCreate(name string, commute bool) (abi.Handle, error) {
	h, code := b.p.OpCreate(name, commute)
	return Widen(h), codeErr(code)
}

func (b *Binding) OpFree(op abi.Handle) error {
	return codeErr(b.p.OpFree(toNative(op)))
}

func (b *Binding) Abort(comm abi.Handle, code int) error {
	return codeErr(b.p.Abort(code))
}

// Compile-time checks that the predefined handle helpers stay in sync with
// the kinds and operators they encode.
var (
	_ = func() bool {
		for _, k := range types.Kinds() {
			if kk, ok := KindOfPredefined(TypeHandle(k)); !ok || kk != k {
				panic("mpich: TypeHandle/KindOfPredefined mismatch")
			}
		}
		for _, op := range ops.Ops() {
			if oo, ok := OpOfPredefined(OpHandle(op)); !ok || oo != op {
				panic("mpich: OpHandle/OpOfPredefined mismatch")
			}
		}
		return true
	}()
)

func (b *Binding) CommRevoke(comm abi.Handle) error {
	return codeErr(b.p.CommRevoke(toNative(comm)))
}

func (b *Binding) CommShrink(comm abi.Handle) (abi.Handle, error) {
	h, code := b.p.CommShrink(toNative(comm))
	return Widen(h), codeErr(code)
}

func (b *Binding) CommAgree(comm abi.Handle, flag uint64) (uint64, error) {
	out, code := b.p.CommAgree(toNative(comm), flag)
	return out, codeErr(code)
}

func (b *Binding) CommFailureAck(comm abi.Handle) error {
	return codeErr(b.p.CommFailureAck(toNative(comm)))
}

func (b *Binding) CommFailureGetAcked(comm abi.Handle) (abi.Handle, error) {
	h, code := b.p.CommFailureGetAcked(toNative(comm))
	return Widen(h), codeErr(code)
}
