package openmpi

import (
	"repro/internal/abi"
	"repro/internal/ops"
	"repro/internal/types"
)

// Binding adapts a Proc to the generic function-table shape. Open MPI's
// handles are pointers; since an opaque 64-bit slot cannot carry a Go
// pointer, the binding keeps a per-rank registry mapping slot values to
// objects — the moral equivalent of the pointer value itself. Constants
// resolve to Open MPI's native values and error codes map from Open MPI's
// table. As with the MPICH binding, an application bound this way is
// welded to this implementation; the Mukautuva shim is the portable path.
type Binding struct {
	p    *Proc
	objs map[uint64]any
	next uint64
}

// Fixed registry slots for predefined objects. Null handles of each class
// get distinct sentinel slots mapping to nil objects.
const (
	slotCommNull uint64 = iota + 1
	slotCommWorld
	slotCommSelf
	slotGroupNull
	slotGroupEmpty
	slotTypeNull
	slotOpNull
	slotReqNull
	slotTypeBase = 0x100 // + types.Kind
	slotOpBase   = 0x200 // + ops.Op
	slotDynBase  = 0x10000
)

// Bind wraps a Proc in its native function-table binding.
func Bind(p *Proc) *Binding {
	b := &Binding{p: p, objs: make(map[uint64]any), next: slotDynBase}
	b.objs[slotCommWorld] = p.CommWorld
	b.objs[slotCommSelf] = p.CommSelf
	b.objs[slotGroupEmpty] = &Group{MyPos: -1}
	for _, k := range types.Kinds() {
		b.objs[slotTypeBase+uint64(k)] = p.Type(k)
	}
	for _, op := range ops.Ops() {
		b.objs[slotOpBase+uint64(op)] = p.PredefOp(op)
	}
	return b
}

var _ abi.FuncTable = (*Binding)(nil)

// register stores an object and returns its slot. nil objects map to the
// class's null slot so MPI_COMM_NULL results round-trip.
func (b *Binding) register(obj any, nullSlot uint64) abi.Handle {
	switch v := obj.(type) {
	case *Comm:
		if v == nil {
			return abi.Handle(nullSlot)
		}
	case *Group:
		if v == nil {
			return abi.Handle(nullSlot)
		}
	case *Datatype:
		if v == nil {
			return abi.Handle(nullSlot)
		}
	case *Op:
		if v == nil {
			return abi.Handle(nullSlot)
		}
	case *Request:
		if v == nil {
			return abi.Handle(nullSlot)
		}
	}
	b.next++
	b.objs[b.next] = obj
	return abi.Handle(b.next)
}

func (b *Binding) comm(h abi.Handle) *Comm {
	c, _ := b.objs[uint64(h)].(*Comm)
	return c
}

func (b *Binding) group(h abi.Handle) *Group {
	g, _ := b.objs[uint64(h)].(*Group)
	return g
}

func (b *Binding) dtype(h abi.Handle) *Datatype {
	d, _ := b.objs[uint64(h)].(*Datatype)
	return d
}

func (b *Binding) op(h abi.Handle) *Op {
	o, _ := b.objs[uint64(h)].(*Op)
	return o
}

func (b *Binding) request(h abi.Handle) *Request {
	r, _ := b.objs[uint64(h)].(*Request)
	return r
}

// codeErr converts an Open MPI return code into an error with the standard
// class attached.
func codeErr(code int) error {
	if code == Success {
		return nil
	}
	return abi.Errorf(ClassOfCode(code), "openmpi", "%s", ErrorString(code))
}

// ClassOfCode maps Open MPI error codes to standard classes (exported for
// the wrap adapter).
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
	case ErrRequest:
		return abi.ErrRequest
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

// CodeOfClass is the reverse direction: the Open MPI code a standard
// error class surfaces as (cross-implementation round-trip tests and
// future standard-to-native translators). Classes Open MPI's table does
// not distinguish (MPI_ERR_PENDING has no slot here) collapse to
// ErrOther.
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
	case abi.ErrRequest:
		return ErrRequest
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

// statusOut converts Open MPI's status layout into the standard layout.
func statusOut(os *Status, as *abi.Status) {
	if as == nil {
		return
	}
	as.Source = os.Source
	as.Tag = os.Tag
	as.Error = os.Error
	as.CountBytes = os.UCount
	as.Cancelled = os.Cancelled
}

// ImplName identifies the lower library.
func (b *Binding) ImplName() string { return "openmpi" }

// Lookup resolves predefined constants to registry slots.
func (b *Binding) Lookup(s abi.Sym) abi.Handle {
	switch s {
	case abi.SymCommWorld:
		return abi.Handle(slotCommWorld)
	case abi.SymCommSelf:
		return abi.Handle(slotCommSelf)
	case abi.SymCommNull:
		return abi.Handle(slotCommNull)
	case abi.SymGroupNull:
		return abi.Handle(slotGroupNull)
	case abi.SymGroupEmpty:
		return abi.Handle(slotGroupEmpty)
	case abi.SymTypeNull:
		return abi.Handle(slotTypeNull)
	case abi.SymOpNull:
		return abi.Handle(slotOpNull)
	case abi.SymRequestNull:
		return abi.Handle(slotReqNull)
	}
	if k, ok := abi.KindForSym(s); ok {
		return abi.Handle(slotTypeBase + uint64(k))
	}
	if op, ok := abi.OpForSym(s); ok {
		return abi.Handle(slotOpBase + uint64(op))
	}
	return abi.Handle(slotTypeNull)
}

// LookupInt resolves integer constants to Open MPI's values.
func (b *Binding) LookupInt(s abi.IntSym) int {
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

// ErrClass maps an Open MPI status error code to its standard class.
func (b *Binding) ErrClass(code int) abi.ErrClass { return ClassOfCode(code) }

func (b *Binding) Send(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) error {
	return codeErr(b.p.Send(buf, count, b.dtype(dtype), dest, tag, b.comm(comm)))
}

func (b *Binding) Recv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle, st *abi.Status) error {
	var os Status
	code := b.p.Recv(buf, count, b.dtype(dtype), source, tag, b.comm(comm), &os)
	statusOut(&os, st)
	return codeErr(code)
}

func (b *Binding) Isend(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) (abi.Handle, error) {
	r, code := b.p.Isend(buf, count, b.dtype(dtype), dest, tag, b.comm(comm))
	if code != Success {
		return abi.Handle(slotReqNull), codeErr(code)
	}
	return b.register(r, slotReqNull), nil
}

func (b *Binding) Irecv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle) (abi.Handle, error) {
	r, code := b.p.Irecv(buf, count, b.dtype(dtype), source, tag, b.comm(comm))
	if code != Success {
		return abi.Handle(slotReqNull), codeErr(code)
	}
	return b.register(r, slotReqNull), nil
}

func (b *Binding) Wait(req abi.Handle, st *abi.Status) error {
	var os Status
	r := b.request(req)
	code := b.p.Wait(r, &os)
	statusOut(&os, st)
	if r != nil && r.Done() { // a failure of progress leaves the request live
		delete(b.objs, uint64(req))
	}
	return codeErr(code)
}

func (b *Binding) Test(req abi.Handle, st *abi.Status) (bool, error) {
	var os Status
	r := b.request(req)
	done, code := b.p.Test(r, &os)
	if done {
		statusOut(&os, st)
		if r != nil {
			delete(b.objs, uint64(req))
		}
	}
	return done, codeErr(code)
}

func (b *Binding) Waitall(reqs []abi.Handle, sts []abi.Status) error {
	native := make([]*Request, len(reqs))
	for i, h := range reqs {
		native[i] = b.request(h)
	}
	var os []Status
	if sts != nil {
		os = make([]Status, len(reqs))
	}
	code := b.p.Waitall(native, os)
	for i := range os {
		statusOut(&os[i], &sts[i])
	}
	for i, h := range reqs {
		if r := native[i]; r != nil && r.Done() {
			delete(b.objs, uint64(h))
		}
	}
	return codeErr(code)
}

func (b *Binding) Sendrecv(sendbuf []byte, scount int, stype abi.Handle, dest, stag int,
	recvbuf []byte, rcount int, rtype abi.Handle, source, rtag int,
	comm abi.Handle, st *abi.Status) error {
	var os Status
	code := b.p.Sendrecv(sendbuf, scount, b.dtype(stype), dest, stag,
		recvbuf, rcount, b.dtype(rtype), source, rtag, b.comm(comm), &os)
	statusOut(&os, st)
	return codeErr(code)
}

func (b *Binding) Probe(source, tag int, comm abi.Handle, st *abi.Status) error {
	var os Status
	code := b.p.Probe(source, tag, b.comm(comm), &os)
	statusOut(&os, st)
	return codeErr(code)
}

func (b *Binding) Iprobe(source, tag int, comm abi.Handle, st *abi.Status) (bool, error) {
	var os Status
	found, code := b.p.Iprobe(source, tag, b.comm(comm), &os)
	if found {
		statusOut(&os, st)
	}
	return found, codeErr(code)
}

func (b *Binding) Barrier(comm abi.Handle) error {
	return codeErr(b.p.Barrier(b.comm(comm)))
}

func (b *Binding) Bcast(buf []byte, count int, dtype abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.Bcast(buf, count, b.dtype(dtype), root, b.comm(comm)))
}

func (b *Binding) Reduce(sendbuf, recvbuf []byte, count int, dtype, op abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.Reduce(sendbuf, recvbuf, count, b.dtype(dtype), b.op(op), root, b.comm(comm)))
}

func (b *Binding) Allreduce(sendbuf, recvbuf []byte, count int, dtype, op abi.Handle, comm abi.Handle) error {
	return codeErr(b.p.Allreduce(sendbuf, recvbuf, count, b.dtype(dtype), b.op(op), b.comm(comm)))
}

func (b *Binding) Gather(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.Gather(sendbuf, scount, b.dtype(stype),
		recvbuf, rcount, b.dtype(rtype), root, b.comm(comm)))
}

func (b *Binding) Allgather(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, comm abi.Handle) error {
	return codeErr(b.p.Allgather(sendbuf, scount, b.dtype(stype),
		recvbuf, rcount, b.dtype(rtype), b.comm(comm)))
}

func (b *Binding) Scatter(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.Scatter(sendbuf, scount, b.dtype(stype),
		recvbuf, rcount, b.dtype(rtype), root, b.comm(comm)))
}

func (b *Binding) Alltoall(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, comm abi.Handle) error {
	return codeErr(b.p.Alltoall(sendbuf, scount, b.dtype(stype),
		recvbuf, rcount, b.dtype(rtype), b.comm(comm)))
}

func (b *Binding) CommSize(comm abi.Handle) (int, error) {
	n, code := b.p.CommSize(b.comm(comm))
	return n, codeErr(code)
}

func (b *Binding) CommRank(comm abi.Handle) (int, error) {
	r, code := b.p.CommRank(b.comm(comm))
	return r, codeErr(code)
}

func (b *Binding) CommDup(comm abi.Handle) (abi.Handle, error) {
	nc, code := b.p.CommDup(b.comm(comm))
	if code != Success {
		return abi.Handle(slotCommNull), codeErr(code)
	}
	return b.register(nc, slotCommNull), nil
}

func (b *Binding) CommSplit(comm abi.Handle, color, key int) (abi.Handle, error) {
	nc, code := b.p.CommSplit(b.comm(comm), color, key)
	if code != Success {
		return abi.Handle(slotCommNull), codeErr(code)
	}
	return b.register(nc, slotCommNull), nil
}

func (b *Binding) CommCreate(comm, group abi.Handle) (abi.Handle, error) {
	nc, code := b.p.CommCreate(b.comm(comm), b.group(group))
	if code != Success {
		return abi.Handle(slotCommNull), codeErr(code)
	}
	return b.register(nc, slotCommNull), nil
}

func (b *Binding) CommGroup(comm abi.Handle) (abi.Handle, error) {
	g, code := b.p.CommGroup(b.comm(comm))
	if code != Success {
		return abi.Handle(slotGroupNull), codeErr(code)
	}
	return b.register(g, slotGroupNull), nil
}

func (b *Binding) CommFree(comm abi.Handle) error {
	c := b.comm(comm)
	code := b.p.CommFree(c)
	if code == Success {
		delete(b.objs, uint64(comm))
	}
	return codeErr(code)
}

func (b *Binding) GroupSize(group abi.Handle) (int, error) {
	n, code := b.p.GroupSize(b.group(group))
	return n, codeErr(code)
}

func (b *Binding) GroupRank(group abi.Handle) (int, error) {
	r, code := b.p.GroupRank(b.group(group))
	return r, codeErr(code)
}

func (b *Binding) GroupIncl(group abi.Handle, ranks []int) (abi.Handle, error) {
	g, code := b.p.GroupIncl(b.group(group), ranks)
	if code != Success {
		return abi.Handle(slotGroupNull), codeErr(code)
	}
	return b.register(g, slotGroupNull), nil
}

func (b *Binding) GroupExcl(group abi.Handle, ranks []int) (abi.Handle, error) {
	g, code := b.p.GroupExcl(b.group(group), ranks)
	if code != Success {
		return abi.Handle(slotGroupNull), codeErr(code)
	}
	return b.register(g, slotGroupNull), nil
}

func (b *Binding) GroupTranslateRanks(g1 abi.Handle, ranks []int, g2 abi.Handle) ([]int, error) {
	out, code := b.p.GroupTranslateRanks(b.group(g1), ranks, b.group(g2))
	return out, codeErr(code)
}

func (b *Binding) GroupFree(group abi.Handle) error {
	code := b.p.GroupFree(b.group(group))
	if code == Success {
		delete(b.objs, uint64(group))
	}
	return codeErr(code)
}

func (b *Binding) TypeContiguous(count int, inner abi.Handle) (abi.Handle, error) {
	dt, code := b.p.TypeContiguous(count, b.dtype(inner))
	if code != Success {
		return abi.Handle(slotTypeNull), codeErr(code)
	}
	return b.register(dt, slotTypeNull), nil
}

func (b *Binding) TypeVector(count, blocklen, stride int, inner abi.Handle) (abi.Handle, error) {
	dt, code := b.p.TypeVector(count, blocklen, stride, b.dtype(inner))
	if code != Success {
		return abi.Handle(slotTypeNull), codeErr(code)
	}
	return b.register(dt, slotTypeNull), nil
}

func (b *Binding) TypeIndexed(blocklens, displs []int, inner abi.Handle) (abi.Handle, error) {
	dt, code := b.p.TypeIndexed(blocklens, displs, b.dtype(inner))
	if code != Success {
		return abi.Handle(slotTypeNull), codeErr(code)
	}
	return b.register(dt, slotTypeNull), nil
}

func (b *Binding) TypeCreateStruct(blocklens, displs []int, typs []abi.Handle) (abi.Handle, error) {
	native := make([]*Datatype, len(typs))
	for i, t := range typs {
		native[i] = b.dtype(t)
	}
	dt, code := b.p.TypeCreateStruct(blocklens, displs, native)
	if code != Success {
		return abi.Handle(slotTypeNull), codeErr(code)
	}
	return b.register(dt, slotTypeNull), nil
}

func (b *Binding) TypeCommit(dtype abi.Handle) error {
	return codeErr(b.p.TypeCommit(b.dtype(dtype)))
}

func (b *Binding) TypeFree(dtype abi.Handle) error {
	code := b.p.TypeFree(b.dtype(dtype))
	if code == Success {
		delete(b.objs, uint64(dtype))
	}
	return codeErr(code)
}

func (b *Binding) TypeSize(dtype abi.Handle) (int, error) {
	n, code := b.p.TypeSize(b.dtype(dtype))
	return n, codeErr(code)
}

func (b *Binding) TypeExtent(dtype abi.Handle) (int, error) {
	n, code := b.p.TypeExtent(b.dtype(dtype))
	return n, codeErr(code)
}

func (b *Binding) GetCount(st *abi.Status, dtype abi.Handle) (int, error) {
	os := Status{UCount: st.CountBytes}
	n, code := b.p.GetCount(&os, b.dtype(dtype))
	return n, codeErr(code)
}

func (b *Binding) OpCreate(name string, commute bool) (abi.Handle, error) {
	o, code := b.p.OpCreate(name, commute)
	if code != Success {
		return abi.Handle(slotOpNull), codeErr(code)
	}
	return b.register(o, slotOpNull), nil
}

func (b *Binding) OpFree(op abi.Handle) error {
	code := b.p.OpFree(b.op(op))
	if code == Success {
		delete(b.objs, uint64(op))
	}
	return codeErr(code)
}

func (b *Binding) Abort(comm abi.Handle, code int) error {
	return codeErr(b.p.Abort(code))
}

func (b *Binding) CommRevoke(comm abi.Handle) error {
	return codeErr(b.p.CommRevoke(b.comm(comm)))
}

func (b *Binding) CommShrink(comm abi.Handle) (abi.Handle, error) {
	nc, code := b.p.CommShrink(b.comm(comm))
	if code != Success {
		return abi.Handle(slotCommNull), codeErr(code)
	}
	return b.register(nc, slotCommNull), nil
}

func (b *Binding) CommAgree(comm abi.Handle, flag uint64) (uint64, error) {
	out, code := b.p.CommAgree(b.comm(comm), flag)
	return out, codeErr(code)
}

func (b *Binding) CommFailureAck(comm abi.Handle) error {
	return codeErr(b.p.CommFailureAck(b.comm(comm)))
}

func (b *Binding) CommFailureGetAcked(comm abi.Handle) (abi.Handle, error) {
	g, code := b.p.CommFailureGetAcked(b.comm(comm))
	if code != Success {
		return abi.Handle(slotGroupNull), codeErr(code)
	}
	return b.register(g, slotGroupNull), nil
}
