package stdabi

import (
	"repro/internal/abi"
)

// Binding adapts a Proc to the generic function-table shape. For the two
// historical implementations this layer is where handles are widened,
// registries consulted and codes re-numbered; here it does none of that —
// the native surface already IS the standard ABI, so handles, constants
// and statuses pass through bit-for-bit and the only work left is
// wrapping int codes as error values. Handle resolution leans on the
// shared runtime's own argument checking: an unknown or null handle
// resolves to nil, and the runtime answers with the class-appropriate
// standard code. Compare this file with mpich/bind.go and
// openmpi/bind.go to see the translation cost a standard ABI deletes.
type Binding struct {
	p *Proc
}

// Bind wraps a Proc in its native function-table binding.
func Bind(p *Proc) *Binding { return &Binding{p: p} }

var _ abi.FuncTable = (*Binding)(nil)

// codeErr converts a standard code into an error value; the class is the
// code.
func codeErr(code int) error {
	if code == Success {
		return nil
	}
	return abi.Errorf(ClassOfCode(code), "stdabi", "%s", ErrorString(code))
}

// ImplName identifies the lower library.
func (b *Binding) ImplName() string { return "stdabi" }

// Lookup resolves predefined constants — to the standard values, which
// are the native values.
func (b *Binding) Lookup(s abi.Sym) abi.Handle { return abi.StdLookup(s) }

// LookupInt resolves integer constants, likewise untranslated.
func (b *Binding) LookupInt(s abi.IntSym) int { return abi.StdLookupInt(s) }

// ErrClass maps a status error code to its standard class.
func (b *Binding) ErrClass(code int) abi.ErrClass { return ClassOfCode(code) }

func (b *Binding) Send(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) error {
	return codeErr(b.p.rt.Send(buf, count, b.p.t(dtype), dest, tag, b.p.c(comm)))
}

func (b *Binding) Recv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle, st *abi.Status) error {
	var cs coreStatus
	code := b.p.rt.Recv(buf, count, b.p.t(dtype), source, tag, b.p.c(comm), &cs)
	if st != nil {
		*st = stdStatus(&cs)
	}
	return codeErr(code)
}

// newReq registers a runtime request under a fresh handle.
func (b *Binding) newReq(r *coreRequest, code int) (abi.Handle, error) {
	if code != Success {
		return abi.RequestNull, codeErr(code)
	}
	h := b.p.mint(abi.ClassRequest)
	b.p.reqs[h] = r
	return h, nil
}

func (b *Binding) Isend(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) (abi.Handle, error) {
	return b.newReq(b.p.rt.Isend(buf, count, b.p.t(dtype), dest, tag, b.p.c(comm)))
}

func (b *Binding) Irecv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle) (abi.Handle, error) {
	return b.newReq(b.p.rt.Irecv(buf, count, b.p.t(dtype), source, tag, b.p.c(comm)))
}

func (b *Binding) Wait(req abi.Handle, st *abi.Status) error {
	if req == abi.RequestNull {
		b.procNull(st)
		return nil
	}
	r, ok := b.p.reqs[req]
	if !ok {
		return codeErr(ErrRequest)
	}
	var cs coreStatus
	code := b.p.rt.Wait(r, &cs)
	if !r.Done() {
		return codeErr(code) // progress failed; the request stays live
	}
	delete(b.p.reqs, req)
	if st != nil {
		*st = stdStatus(&cs)
	}
	return codeErr(code)
}

func (b *Binding) Test(req abi.Handle, st *abi.Status) (bool, error) {
	if req == abi.RequestNull {
		b.procNull(st)
		return true, nil
	}
	r, ok := b.p.reqs[req]
	if !ok {
		return false, codeErr(ErrRequest)
	}
	var cs coreStatus
	done, code := b.p.rt.Test(r, &cs)
	if !done {
		return false, codeErr(code)
	}
	delete(b.p.reqs, req)
	if st != nil {
		*st = stdStatus(&cs)
	}
	return true, codeErr(code)
}

func (b *Binding) Waitall(reqs []abi.Handle, sts []abi.Status) error {
	if sts != nil && len(sts) != len(reqs) {
		return codeErr(ErrArg)
	}
	var rc error
	for i, h := range reqs {
		var st abi.Status
		if err := b.Wait(h, &st); err != nil {
			rc = err
		}
		if sts != nil {
			sts[i] = st
		}
	}
	return rc
}

func (b *Binding) Sendrecv(sendbuf []byte, scount int, stype abi.Handle, dest, stag int,
	recvbuf []byte, rcount int, rtype abi.Handle, source, rtag int,
	comm abi.Handle, st *abi.Status) error {
	rreq, err := b.Irecv(recvbuf, rcount, rtype, source, rtag, comm)
	if err != nil {
		return err
	}
	if err := b.Send(sendbuf, scount, stype, dest, stag, comm); err != nil {
		return err
	}
	return b.Wait(rreq, st)
}

func (b *Binding) procNull(st *abi.Status) {
	if st == nil {
		return
	}
	var cs coreStatus
	b.p.rt.ProcNullStatus(&cs)
	*st = stdStatus(&cs)
}

func (b *Binding) Probe(source, tag int, comm abi.Handle, st *abi.Status) error {
	var cs coreStatus
	code := b.p.rt.Probe(source, tag, b.p.c(comm), &cs)
	if code == Success && st != nil {
		*st = stdStatus(&cs)
	}
	return codeErr(code)
}

func (b *Binding) Iprobe(source, tag int, comm abi.Handle, st *abi.Status) (bool, error) {
	var cs coreStatus
	found, code := b.p.rt.Iprobe(source, tag, b.p.c(comm), &cs)
	if found && st != nil {
		*st = stdStatus(&cs)
	}
	return found, codeErr(code)
}

func (b *Binding) Barrier(comm abi.Handle) error {
	return codeErr(b.p.rt.Barrier(b.p.c(comm)))
}

func (b *Binding) Bcast(buf []byte, count int, dtype abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.rt.Bcast(buf, count, b.p.t(dtype), root, b.p.c(comm)))
}

func (b *Binding) Reduce(sendbuf, recvbuf []byte, count int, dtype, op abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.rt.Reduce(sendbuf, recvbuf, count, b.p.t(dtype), b.p.o(op), root, b.p.c(comm)))
}

func (b *Binding) Allreduce(sendbuf, recvbuf []byte, count int, dtype, op abi.Handle, comm abi.Handle) error {
	return codeErr(b.p.rt.Allreduce(sendbuf, recvbuf, count, b.p.t(dtype), b.p.o(op), b.p.c(comm)))
}

func (b *Binding) Gather(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.rt.Gather(sendbuf, scount, b.p.t(stype),
		recvbuf, rcount, b.p.t(rtype), root, b.p.c(comm)))
}

func (b *Binding) Allgather(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, comm abi.Handle) error {
	return codeErr(b.p.rt.Allgather(sendbuf, scount, b.p.t(stype),
		recvbuf, rcount, b.p.t(rtype), b.p.c(comm)))
}

func (b *Binding) Scatter(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, root int, comm abi.Handle) error {
	return codeErr(b.p.rt.Scatter(sendbuf, scount, b.p.t(stype),
		recvbuf, rcount, b.p.t(rtype), root, b.p.c(comm)))
}

func (b *Binding) Alltoall(sendbuf []byte, scount int, stype abi.Handle,
	recvbuf []byte, rcount int, rtype abi.Handle, comm abi.Handle) error {
	return codeErr(b.p.rt.Alltoall(sendbuf, scount, b.p.t(stype),
		recvbuf, rcount, b.p.t(rtype), b.p.c(comm)))
}

func (b *Binding) CommSize(comm abi.Handle) (int, error) {
	c := b.p.c(comm)
	if c == nil {
		return 0, codeErr(ErrComm)
	}
	return c.Size(), nil
}

func (b *Binding) CommRank(comm abi.Handle) (int, error) {
	c := b.p.c(comm)
	if c == nil {
		return 0, codeErr(ErrComm)
	}
	return c.MyPos, nil
}

// newComm registers a runtime-built communicator under a fresh handle;
// nil (the split/create non-member result) maps to MPI_COMM_NULL.
func (b *Binding) newComm(nc *coreComm, code int) (abi.Handle, error) {
	if code != Success || nc == nil {
		return abi.CommNull, codeErr(code)
	}
	h := b.p.mint(abi.ClassComm)
	b.p.comms[h] = nc
	return h, nil
}

func (b *Binding) CommDup(comm abi.Handle) (abi.Handle, error) {
	return b.newComm(b.p.rt.CommDup(b.p.c(comm)))
}

func (b *Binding) CommSplit(comm abi.Handle, color, key int) (abi.Handle, error) {
	return b.newComm(b.p.rt.CommSplit(b.p.c(comm), color, key))
}

func (b *Binding) CommCreate(comm, group abi.Handle) (abi.Handle, error) {
	return b.newComm(b.p.rt.CommCreate(b.p.c(comm), b.p.g(group)))
}

func (b *Binding) CommGroup(comm abi.Handle) (abi.Handle, error) {
	return b.newGroup(b.p.rt.CommGroup(b.p.c(comm)))
}

func (b *Binding) CommFree(comm abi.Handle) error {
	if comm == abi.CommWorld || comm == abi.CommSelf {
		return codeErr(ErrComm)
	}
	if code := b.p.rt.CommFree(b.p.c(comm)); code != Success {
		return codeErr(code)
	}
	delete(b.p.comms, comm)
	return nil
}

func (b *Binding) GroupSize(group abi.Handle) (int, error) {
	n, code := b.p.rt.GroupSize(b.p.g(group))
	return n, codeErr(code)
}

func (b *Binding) GroupRank(group abi.Handle) (int, error) {
	r, code := b.p.rt.GroupRank(b.p.g(group))
	return r, codeErr(code)
}

// newGroup registers a runtime-built group; the empty group collapses to
// the reserved MPI_GROUP_EMPTY handle.
func (b *Binding) newGroup(g *coreGroup, code int) (abi.Handle, error) {
	if code != Success {
		return abi.GroupNull, codeErr(code)
	}
	if len(g.Ranks) == 0 {
		return abi.GroupEmpty, nil
	}
	h := b.p.mint(abi.ClassGroup)
	b.p.groups[h] = g
	return h, nil
}

func (b *Binding) GroupIncl(group abi.Handle, ranks []int) (abi.Handle, error) {
	return b.newGroup(b.p.rt.GroupIncl(b.p.g(group), ranks))
}

func (b *Binding) GroupExcl(group abi.Handle, ranks []int) (abi.Handle, error) {
	return b.newGroup(b.p.rt.GroupExcl(b.p.g(group), ranks))
}

func (b *Binding) GroupTranslateRanks(g1 abi.Handle, ranks []int, g2 abi.Handle) ([]int, error) {
	out, code := b.p.rt.GroupTranslateRanks(b.p.g(g1), ranks, b.p.g(g2))
	return out, codeErr(code)
}

func (b *Binding) GroupFree(group abi.Handle) error {
	if group == abi.GroupEmpty {
		return nil
	}
	if _, ok := b.p.groups[group]; !ok {
		return codeErr(ErrGroup)
	}
	delete(b.p.groups, group)
	return nil
}

// newType registers a runtime-built datatype under a fresh handle.
func (b *Binding) newType(t *coreType, code int) (abi.Handle, error) {
	if code != Success {
		return abi.TypeNull, codeErr(code)
	}
	h := b.p.mint(abi.ClassType)
	b.p.dtypes[h] = t
	return h, nil
}

func (b *Binding) TypeContiguous(count int, inner abi.Handle) (abi.Handle, error) {
	return b.newType(b.p.rt.TypeContiguous(count, b.p.t(inner)))
}

func (b *Binding) TypeVector(count, blocklen, stride int, inner abi.Handle) (abi.Handle, error) {
	return b.newType(b.p.rt.TypeVector(count, blocklen, stride, b.p.t(inner)))
}

func (b *Binding) TypeIndexed(blocklens, displs []int, inner abi.Handle) (abi.Handle, error) {
	return b.newType(b.p.rt.TypeIndexed(blocklens, displs, b.p.t(inner)))
}

func (b *Binding) TypeCreateStruct(blocklens, displs []int, typs []abi.Handle) (abi.Handle, error) {
	members := make([]*coreType, len(typs))
	for i, th := range typs {
		members[i] = b.p.t(th)
	}
	return b.newType(b.p.rt.TypeCreateStruct(blocklens, displs, members))
}

func (b *Binding) TypeCommit(dtype abi.Handle) error {
	return codeErr(b.p.rt.TypeCommit(b.p.t(dtype)))
}

func (b *Binding) TypeFree(dtype abi.Handle) error {
	if code := b.p.rt.TypeFree(b.p.t(dtype)); code != Success {
		return codeErr(code)
	}
	delete(b.p.dtypes, dtype)
	return nil
}

func (b *Binding) TypeSize(dtype abi.Handle) (int, error) {
	n, code := b.p.rt.TypeSize(b.p.t(dtype))
	return n, codeErr(code)
}

func (b *Binding) TypeExtent(dtype abi.Handle) (int, error) {
	n, code := b.p.rt.TypeExtent(b.p.t(dtype))
	return n, codeErr(code)
}

func (b *Binding) GetCount(st *abi.Status, dtype abi.Handle) (int, error) {
	n, code := b.p.rt.GetCount(st.CountBytes, b.p.t(dtype))
	return n, codeErr(code)
}

func (b *Binding) OpCreate(name string, commute bool) (abi.Handle, error) {
	o, code := b.p.rt.OpCreate(name, commute)
	if code != Success {
		return abi.OpNull, codeErr(code)
	}
	h := b.p.mint(abi.ClassOp)
	b.p.userOps[h] = o
	return h, nil
}

func (b *Binding) OpFree(op abi.Handle) error {
	if code := b.p.rt.OpFree(b.p.o(op)); code != Success {
		return codeErr(code)
	}
	delete(b.p.userOps, op)
	return nil
}

func (b *Binding) Abort(comm abi.Handle, code int) error {
	return codeErr(b.p.rt.Abort(code))
}

func (b *Binding) CommRevoke(comm abi.Handle) error {
	return codeErr(b.p.rt.CommRevoke(b.p.c(comm)))
}

func (b *Binding) CommShrink(comm abi.Handle) (abi.Handle, error) {
	return b.newComm(b.p.rt.CommShrink(b.p.c(comm)))
}

func (b *Binding) CommAgree(comm abi.Handle, flag uint64) (uint64, error) {
	out, code := b.p.rt.CommAgree(b.p.c(comm), flag)
	return out, codeErr(code)
}

func (b *Binding) CommFailureAck(comm abi.Handle) error {
	return codeErr(b.p.rt.CommFailureAck(b.p.c(comm)))
}

func (b *Binding) CommFailureGetAcked(comm abi.Handle) (abi.Handle, error) {
	return b.newGroup(b.p.rt.CommFailureGetAcked(b.p.c(comm)))
}
