package mana

import (
	"repro/internal/abi"
)

// matchBuffered finds the oldest drained message matching (source, tag)
// with standard wildcards; remove=false implements probing.
func (w *Wrapper) matchBuffered(comm abi.Handle, source, tag int, remove bool) (Drained, bool) {
	q := w.buffered[comm]
	for i, d := range q {
		if source != abi.AnySource && d.Source != source {
			continue
		}
		if tag != abi.AnyTag && d.Tag != int32(tag) {
			continue
		}
		if remove {
			w.buffered[comm] = append(q[:i:i], q[i+1:]...)
		}
		return d, true
	}
	return Drained{}, false
}

// deliverBuffered hands a drained message to the application through the
// lower half's own unpack machinery: the wrapper re-injects the packed
// bytes as a self-send on the same communicator and immediately receives
// them with the application's datatype. The status is then rewritten with
// the original envelope facts.
func (w *Wrapper) deliverBuffered(d Drained, buf []byte, count int, dtype, comm abi.Handle, st *abi.Status) error {
	ic := w.In(comm)
	info := w.comms[comm]
	if info == nil {
		return abi.Errorf(abi.ErrComm, "mana", "buffered delivery on unknown communicator %v", comm)
	}
	if err := w.inner.Send(d.Data, len(d.Data), w.In(abi.TypeByte), info.myRank, int(d.Tag), ic); err != nil {
		return w.Err(err)
	}
	var tmp abi.Status
	err := w.inner.Recv(buf, count, w.In(dtype), info.myRank, int(d.Tag), ic, &tmp)
	w.StatusBack(&tmp)
	tmp.Source = int32(d.Source)
	tmp.Tag = d.Tag
	if st != nil {
		*st = tmp
	}
	return w.Err(err)
}

func (w *Wrapper) Send(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) error {
	w.Charge()
	err := w.inner.Send(buf, count, w.In(dtype), w.PeerIn(dest), tag, w.In(comm))
	if err == nil && dest != abi.ProcNull {
		bump(w.sent, comm, dest)
	}
	return w.Err(err)
}

func (w *Wrapper) Recv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle, st *abi.Status) error {
	w.Charge()
	if d, ok := w.matchBuffered(comm, source, tag, true); ok {
		return w.deliverBuffered(d, buf, count, dtype, comm, st)
	}
	var tmp abi.Status
	err := w.inner.Recv(buf, count, w.In(dtype), w.PeerIn(source), w.TagIn(tag), w.In(comm), &tmp)
	w.StatusBack(&tmp)
	if err == nil && tmp.Source >= 0 {
		bump(w.recvd, comm, int(tmp.Source))
	}
	if st != nil {
		*st = tmp
	}
	return w.Err(err)
}

func (w *Wrapper) Isend(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) (abi.Handle, error) {
	w.Charge()
	r, err := w.inner.Isend(buf, count, w.In(dtype), w.PeerIn(dest), tag, w.In(comm))
	if err != nil {
		return abi.RequestNull, w.Err(err)
	}
	if dest != abi.ProcNull {
		bump(w.sent, comm, dest)
	}
	w.nextReq++
	rv := abi.MakeHandle(abi.ClassRequest, w.nextReq)
	w.Map(rv, r)
	w.reqs[rv] = &reqInfo{isRecv: false, comm: comm}
	return rv, nil
}

func (w *Wrapper) Irecv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle) (abi.Handle, error) {
	w.Charge()
	w.nextReq++
	rv := abi.MakeHandle(abi.ClassRequest, w.nextReq)
	if d, ok := w.matchBuffered(comm, source, tag, true); ok {
		var st abi.Status
		err := w.deliverBuffered(d, buf, count, dtype, comm, &st)
		w.reqs[rv] = &reqInfo{isRecv: true, comm: comm, pseudo: true, status: st, code: err}
		return rv, nil
	}
	r, err := w.inner.Irecv(buf, count, w.In(dtype), w.PeerIn(source), w.TagIn(tag), w.In(comm))
	if err != nil {
		return abi.RequestNull, w.Err(err)
	}
	w.Map(rv, r)
	w.reqs[rv] = &reqInfo{isRecv: true, comm: comm}
	return rv, nil
}

func (w *Wrapper) Wait(req abi.Handle, st *abi.Status) error {
	w.Charge()
	info, ok := w.reqs[req]
	if !ok {
		return abi.Errorf(abi.ErrRequest, "mana", "unknown request %v", req)
	}
	if info.pseudo {
		delete(w.reqs, req)
		if st != nil {
			*st = info.status
		}
		return info.code
	}
	var tmp abi.Status
	err := w.inner.Wait(w.In(req), &tmp)
	w.StatusBack(&tmp)
	if err == nil && info.isRecv && tmp.Source >= 0 {
		bump(w.recvd, info.comm, int(tmp.Source))
	}
	delete(w.reqs, req)
	w.Unmap(req)
	if st != nil {
		*st = tmp
	}
	return w.Err(err)
}

func (w *Wrapper) Test(req abi.Handle, st *abi.Status) (bool, error) {
	w.Charge()
	info, ok := w.reqs[req]
	if !ok {
		return false, abi.Errorf(abi.ErrRequest, "mana", "unknown request %v", req)
	}
	if info.pseudo {
		delete(w.reqs, req)
		if st != nil {
			*st = info.status
		}
		return true, info.code
	}
	var tmp abi.Status
	done, err := w.inner.Test(w.In(req), &tmp)
	if !done {
		return false, w.Err(err)
	}
	w.StatusBack(&tmp)
	if err == nil && info.isRecv && tmp.Source >= 0 {
		bump(w.recvd, info.comm, int(tmp.Source))
	}
	delete(w.reqs, req)
	w.Unmap(req)
	if st != nil {
		*st = tmp
	}
	return true, w.Err(err)
}

func (w *Wrapper) Waitall(reqs []abi.Handle, sts []abi.Status) error {
	if sts != nil && len(sts) != len(reqs) {
		return abi.Errorf(abi.ErrArg, "mana", "waitall status slice length mismatch")
	}
	var firstErr error
	for i, r := range reqs {
		var st abi.Status
		if err := w.Wait(r, &st); err != nil && firstErr == nil {
			firstErr = err
		}
		if sts != nil {
			sts[i] = st
		}
	}
	return firstErr
}

func (w *Wrapper) Sendrecv(sendbuf []byte, scount int, stype abi.Handle, dest, stag int,
	recvbuf []byte, rcount int, rtype abi.Handle, source, rtag int,
	comm abi.Handle, st *abi.Status) error {
	rr, err := w.Irecv(recvbuf, rcount, rtype, source, rtag, comm)
	if err != nil {
		return err
	}
	if err := w.Send(sendbuf, scount, stype, dest, stag, comm); err != nil {
		return err
	}
	return w.Wait(rr, st)
}

func (w *Wrapper) Probe(source, tag int, comm abi.Handle, st *abi.Status) error {
	w.Charge()
	if d, ok := w.matchBuffered(comm, source, tag, false); ok {
		if st != nil {
			st.Source = int32(d.Source)
			st.Tag = d.Tag
			st.Error = 0
			st.CountBytes = uint64(len(d.Data))
		}
		return nil
	}
	err := w.inner.Probe(w.PeerIn(source), w.TagIn(tag), w.In(comm), st)
	w.StatusBack(st)
	return w.Err(err)
}

func (w *Wrapper) Iprobe(source, tag int, comm abi.Handle, st *abi.Status) (bool, error) {
	w.Charge()
	if d, ok := w.matchBuffered(comm, source, tag, false); ok {
		if st != nil {
			st.Source = int32(d.Source)
			st.Tag = d.Tag
			st.Error = 0
			st.CountBytes = uint64(len(d.Data))
		}
		return true, nil
	}
	found, err := w.inner.Iprobe(w.PeerIn(source), w.TagIn(tag), w.In(comm), st)
	if found {
		w.StatusBack(st)
	}
	return found, w.Err(err)
}

// newCommVid allocates a vid + commInfo for a freshly created inner
// communicator and records the creation event.
func (w *Wrapper) newCommVid(op EvOp, parent, aux abi.Handle, native abi.Handle, ints []int) (abi.Handle, error) {
	parentInfo := w.comms[parent]
	if parentInfo == nil {
		return abi.CommNull, abi.Errorf(abi.ErrComm, "mana", "unknown parent communicator %v", parent)
	}
	ord := parentInfo.nextOrd
	parentInfo.nextOrd++
	color := 0
	if op == EvCommSplit {
		color = ints[0]
	}
	gid := commGID(parentInfo.gid, op, ord, color)
	ev := Event{Op: op, Parent: parent, Aux: aux, Ints: ints, GID: gid, Vid: abi.CommNull}
	if native == w.In(abi.CommNull) {
		// Collective participation without membership (UNDEFINED color).
		w.record(ev)
		return abi.CommNull, nil
	}
	v := w.vid(abi.ClassComm, native)
	ev.Vid = v
	w.record(ev)
	myRank, err := w.inner.CommRank(native)
	if err != nil {
		return abi.CommNull, w.Err(err)
	}
	size, err := w.inner.CommSize(native)
	if err != nil {
		return abi.CommNull, w.Err(err)
	}
	w.comms[v] = &commInfo{gid: gid, myRank: myRank, size: size}
	return v, nil
}

func (w *Wrapper) CommDup(comm abi.Handle) (abi.Handle, error) {
	w.Charge()
	n, err := w.inner.CommDup(w.In(comm))
	if err != nil {
		return abi.CommNull, w.Err(err)
	}
	return w.newCommVid(EvCommDup, comm, abi.HandleNull, n, nil)
}

func (w *Wrapper) CommSplit(comm abi.Handle, color, key int) (abi.Handle, error) {
	w.Charge()
	n, err := w.inner.CommSplit(w.In(comm), w.ColorIn(color), key)
	if err != nil {
		return abi.CommNull, w.Err(err)
	}
	return w.newCommVid(EvCommSplit, comm, abi.HandleNull, n, []int{color, key})
}

func (w *Wrapper) CommCreate(comm, group abi.Handle) (abi.Handle, error) {
	w.Charge()
	n, err := w.inner.CommCreate(w.In(comm), w.In(group))
	if err != nil {
		return abi.CommNull, w.Err(err)
	}
	return w.newCommVid(EvCommCreate, comm, group, n, nil)
}

func (w *Wrapper) CommGroup(comm abi.Handle) (abi.Handle, error) {
	w.Charge()
	n, err := w.inner.CommGroup(w.In(comm))
	if err != nil {
		return abi.GroupNull, w.Err(err)
	}
	v := w.vid(abi.ClassGroup, n)
	w.record(Event{Op: EvCommGroup, Vid: v, Parent: comm})
	return v, nil
}

func (w *Wrapper) CommFree(comm abi.Handle) error {
	w.Charge()
	err := w.inner.CommFree(w.In(comm))
	if err != nil {
		return w.Err(err)
	}
	w.record(Event{Op: EvCommFree, Vid: comm})
	w.Unmap(comm)
	delete(w.comms, comm)
	delete(w.sent, comm)
	delete(w.recvd, comm)
	delete(w.buffered, comm)
	return nil
}

func (w *Wrapper) GroupIncl(group abi.Handle, ranks []int) (abi.Handle, error) {
	w.Charge()
	n, err := w.inner.GroupIncl(w.In(group), ranks)
	if err != nil {
		return abi.GroupNull, w.Err(err)
	}
	v := w.vid(abi.ClassGroup, n)
	w.record(Event{Op: EvGroupIncl, Vid: v, Parent: group, Ints: append([]int(nil), ranks...)})
	return v, nil
}

func (w *Wrapper) GroupExcl(group abi.Handle, ranks []int) (abi.Handle, error) {
	w.Charge()
	n, err := w.inner.GroupExcl(w.In(group), ranks)
	if err != nil {
		return abi.GroupNull, w.Err(err)
	}
	v := w.vid(abi.ClassGroup, n)
	w.record(Event{Op: EvGroupExcl, Vid: v, Parent: group, Ints: append([]int(nil), ranks...)})
	return v, nil
}

func (w *Wrapper) GroupFree(group abi.Handle) error {
	w.Charge()
	err := w.inner.GroupFree(w.In(group))
	if err != nil {
		return w.Err(err)
	}
	w.record(Event{Op: EvGroupFree, Vid: group})
	w.Unmap(group)
	return nil
}

func (w *Wrapper) TypeContiguous(count int, inner abi.Handle) (abi.Handle, error) {
	w.Charge()
	n, err := w.inner.TypeContiguous(count, w.In(inner))
	if err != nil {
		return abi.TypeNull, w.Err(err)
	}
	v := w.vid(abi.ClassType, n)
	w.record(Event{Op: EvTypeContig, Vid: v, Parent: inner, Ints: []int{count}})
	return v, nil
}

func (w *Wrapper) TypeVector(count, blocklen, stride int, inner abi.Handle) (abi.Handle, error) {
	w.Charge()
	n, err := w.inner.TypeVector(count, blocklen, stride, w.In(inner))
	if err != nil {
		return abi.TypeNull, w.Err(err)
	}
	v := w.vid(abi.ClassType, n)
	w.record(Event{Op: EvTypeVector, Vid: v, Parent: inner, Ints: []int{count, blocklen, stride}})
	return v, nil
}

func (w *Wrapper) TypeIndexed(blocklens, displs []int, inner abi.Handle) (abi.Handle, error) {
	w.Charge()
	n, err := w.inner.TypeIndexed(blocklens, displs, w.In(inner))
	if err != nil {
		return abi.TypeNull, w.Err(err)
	}
	v := w.vid(abi.ClassType, n)
	ints := append(append([]int(nil), blocklens...), displs...)
	w.record(Event{Op: EvTypeIndexed, Vid: v, Parent: inner, Ints: ints})
	return v, nil
}

func (w *Wrapper) TypeCreateStruct(blocklens, displs []int, typs []abi.Handle) (abi.Handle, error) {
	w.Charge()
	innerTyps := make([]abi.Handle, len(typs))
	for i, t := range typs {
		innerTyps[i] = w.In(t)
	}
	n, err := w.inner.TypeCreateStruct(blocklens, displs, innerTyps)
	if err != nil {
		return abi.TypeNull, w.Err(err)
	}
	v := w.vid(abi.ClassType, n)
	ints := append(append([]int(nil), blocklens...), displs...)
	w.record(Event{Op: EvTypeStruct, Vid: v, Ints: ints, Handles: append([]abi.Handle(nil), typs...)})
	return v, nil
}

func (w *Wrapper) TypeCommit(dtype abi.Handle) error {
	w.Charge()
	if err := w.inner.TypeCommit(w.In(dtype)); err != nil {
		return w.Err(err)
	}
	w.record(Event{Op: EvTypeCommit, Vid: dtype})
	return nil
}

func (w *Wrapper) TypeFree(dtype abi.Handle) error {
	w.Charge()
	if err := w.inner.TypeFree(w.In(dtype)); err != nil {
		return w.Err(err)
	}
	w.record(Event{Op: EvTypeFree, Vid: dtype})
	w.Unmap(dtype)
	return nil
}

func (w *Wrapper) OpCreate(name string, commute bool) (abi.Handle, error) {
	w.Charge()
	n, err := w.inner.OpCreate(name, commute)
	if err != nil {
		return abi.OpNull, w.Err(err)
	}
	v := w.vid(abi.ClassOp, n)
	w.record(Event{Op: EvOpCreate, Vid: v, Name: name, Flag: commute})
	return v, nil
}

func (w *Wrapper) OpFree(op abi.Handle) error {
	w.Charge()
	if err := w.inner.OpFree(w.In(op)); err != nil {
		return w.Err(err)
	}
	w.record(Event{Op: EvOpFree, Vid: op})
	w.Unmap(op)
	return nil
}

// The ULFM (MPIX_*) surface. Revocation, agreement and failure
// acknowledgement are stateless from the checkpointer's point of view
// and are the embedded translator's. The handle-creating calls — CommShrink and
// CommFailureGetAcked — are refused: a shrunken communicator's recipe is
// a function of which ranks died, which no restart replay can
// reproduce, so ULFM in-place recovery and MANA checkpoint/restart are
// alternative fault-tolerance paths, not composable ones (core enforces
// the same split: shrink-mode recovery runs checkpointer-free stacks).

func (w *Wrapper) CommShrink(comm abi.Handle) (abi.Handle, error) {
	return abi.CommNull, abi.Errorf(abi.ErrUnsupported, "mana",
		"MPIX_Comm_shrink under a checkpointing wrapper: a shrunken communicator has no replayable recipe; use the checkpoint-free ULFM stack")
}

func (w *Wrapper) CommFailureGetAcked(comm abi.Handle) (abi.Handle, error) {
	return abi.GroupNull, abi.Errorf(abi.ErrUnsupported, "mana",
		"MPIX_Comm_failure_get_acked under a checkpointing wrapper: acknowledged-failure groups have no replayable recipe")
}
