package abi

import (
	"time"

	"repro/internal/simnet"
)

// Dialect is the vocabulary a Translator speaks upward: the constant
// values an application bound to it embeds, the handles it mints for
// runtime objects, and the numbering of the error codes it reads out of
// statuses. The MPI ABI standardization effort frames the difference
// between implementations as exactly this table. StdDialect is the
// standard ABI's; internal/wi4mpi builds MPICH's from the mpich package.
type Dialect struct {
	// Lookup and LookupInt resolve predefined constants.
	Lookup    func(Sym) Handle
	LookupInt func(IntSym) int
	// ClassOf names the object class of an upward handle the translator
	// holds no mapping for, so that the class's inner null handle goes
	// downward and the lower library reports the error in its own
	// vocabulary. ClassNone (or any class past ClassRequest) sends the
	// inner null datatype.
	ClassOf func(Handle) Class
	// Mint builds the upward handle of a runtime object; n counts up from
	// MintBase+1, one per minted handle across all classes.
	Mint     func(c Class, n uint64) Handle
	MintBase uint64
	// CodeOf numbers a standard error class as an upward status code;
	// ClassOfCode is its inverse, the dialect's MPI_Error_class.
	CodeOf      func(ErrClass) int
	ClassOfCode func(code int) ErrClass
}

// StdDialect is the standard ABI: fixed constants, class-tagged handles
// minted above PredefinedLimit, and error codes equal to their classes.
var StdDialect = Dialect{
	Lookup:      StdLookup,
	LookupInt:   StdLookupInt,
	ClassOf:     Handle.HandleClass,
	Mint:        MakeHandle,
	MintBase:    PredefinedLimit,
	CodeOf:      func(c ErrClass) int { return int(c) },
	ClassOfCode: func(code int) ErrClass { return ErrClass(code) },
}

// sentinels are a dialect's integer constants that arguments and
// results carry in place of ranks, tags and colors.
type sentinels struct{ anySource, anyTag, procNull, root, undefined int }

func sentinelsOf(lookup func(IntSym) int) sentinels {
	return sentinels{
		anySource: lookup(IntAnySource),
		anyTag:    lookup(IntAnyTag),
		procNull:  lookup(IntProcNull),
		root:      lookup(IntRoot),
		undefined: lookup(IntUndefined),
	}
}

// Translator is the one translating interposer: a FuncTable that speaks a
// Dialect upward and forwards every call to an inner table, translating
// handles, sentinels, statuses and errors in both directions and charging
// a fixed per-call cost to the rank's virtual clock. Mukautuva is the
// standard dialect over a native binding, Wi4MPI's preload mode is
// MPICH's dialect over one, and MANA embeds a standard-dialect Translator
// and overrides the calls it must intercept.
//
// Translation state is one map from upward to inner handles, seeded
// eagerly with the predefined constants and extended as runtime objects
// are created.
type Translator struct {
	d     Dialect
	inner FuncTable
	clock *simnet.Clock
	cost  time.Duration
	name  string
	label string

	fwd  map[Handle]Handle // upward -> inner
	next uint64

	// Null handles per class, upward and inner; ClassNone holds the null
	// datatype.
	upNull, inNull [ClassRequest + 1]Handle
	up, in         sentinels
}

var _ FuncTable = (*Translator)(nil)

// NewTranslator builds a translator from dialect d onto inner. Every call
// except Abort charges cost to clock. name is what ImplName reports, and
// label attributes the errors the translator passes up.
func NewTranslator(d Dialect, inner FuncTable, clock *simnet.Clock, cost time.Duration, name, label string) *Translator {
	t := &Translator{
		d: d, inner: inner, clock: clock, cost: cost, name: name, label: label,
		fwd:  make(map[Handle]Handle),
		next: d.MintBase,
		up:   sentinelsOf(d.LookupInt),
		in:   sentinelsOf(inner.LookupInt),
	}
	for _, s := range ObjectSyms() {
		t.fwd[d.Lookup(s)] = inner.Lookup(s)
	}
	for c := range t.upNull {
		s := nullSym(Class(c))
		t.upNull[c] = d.Lookup(s)
		t.inNull[c] = inner.Lookup(s)
	}
	return t
}

func nullSym(c Class) Sym {
	switch c {
	case ClassComm:
		return SymCommNull
	case ClassGroup:
		return SymGroupNull
	case ClassOp:
		return SymOpNull
	case ClassRequest:
		return SymRequestNull
	}
	return SymTypeNull
}

// The translation primitives. They are exported for layers that embed a
// Translator and intercept some calls themselves (internal/mana).

// Charge bills one call's translation cost to virtual time.
func (t *Translator) Charge() { t.clock.Advance(t.cost) }

// In translates an upward handle to the inner one.
func (t *Translator) In(h Handle) Handle {
	if n, ok := t.fwd[h]; ok {
		return n
	}
	c := t.d.ClassOf(h)
	if int(c) >= len(t.inNull) {
		c = ClassNone
	}
	return t.inNull[c]
}

// Map binds an upward handle to an inner one.
func (t *Translator) Map(up, inner Handle) { t.fwd[up] = inner }

// Unmap drops an upward handle's binding (after frees and completed
// requests).
func (t *Translator) Unmap(up Handle) { delete(t.fwd, up) }

// PeerIn translates a rank argument's upward sentinels to inner values.
func (t *Translator) PeerIn(v int) int {
	switch v {
	case t.up.anySource:
		return t.in.anySource
	case t.up.procNull:
		return t.in.procNull
	case t.up.root:
		return t.in.root
	}
	return v
}

// TagIn translates the tag wildcard.
func (t *Translator) TagIn(v int) int {
	if v == t.up.anyTag {
		return t.in.anyTag
	}
	return v
}

// ColorIn translates MPI_UNDEFINED as a split color.
func (t *Translator) ColorIn(v int) int {
	if v == t.up.undefined {
		return t.in.undefined
	}
	return v
}

// StatusBack rewrites inner sentinels in a returned status into upward
// ones. Regular ranks and tags pass through; a nonzero error code is
// classified by the inner table and renumbered in the dialect.
func (t *Translator) StatusBack(st *Status) {
	if st == nil {
		return
	}
	if int(st.Source) == t.in.procNull {
		st.Source = int32(t.up.procNull)
	}
	if int(st.Tag) == t.in.anyTag {
		st.Tag = int32(t.up.anyTag)
	}
	if st.Error != 0 {
		st.Error = int32(t.d.CodeOf(t.inner.ErrClass(int(st.Error))))
	}
}

// Err re-attributes an inner error to the translator, keeping its class.
func (t *Translator) Err(e error) error {
	if e == nil {
		return nil
	}
	return Errorf(ClassOf(e), t.label, "%v", e)
}

// countBack translates inner MPI_UNDEFINED results (GetCount, GroupRank,
// translate-ranks).
func (t *Translator) countBack(v int) int {
	if v == t.in.undefined {
		return t.up.undefined
	}
	return v
}

// made finishes a handle-creating call: it mints an upward handle for the
// inner result, and errors and inner nulls come back as the dialect's
// null of the class.
func (t *Translator) made(c Class, native Handle, err error) (Handle, error) {
	if err != nil {
		return t.upNull[c], t.Err(err)
	}
	if native == t.inNull[c] {
		return t.upNull[c], nil
	}
	t.next++
	h := t.d.Mint(c, t.next)
	t.fwd[h] = native
	return h, nil
}

// freed finishes a handle-freeing call.
func (t *Translator) freed(h Handle, err error) error {
	if err == nil {
		t.Unmap(h)
	}
	return t.Err(err)
}

// --- FuncTable ---

// ImplName reports the name the translator was built with.
func (t *Translator) ImplName() string { return t.name }

// Lookup resolves constants to the dialect's values: applications bound
// to the translator embed only those.
func (t *Translator) Lookup(s Sym) Handle { return t.d.Lookup(s) }

// LookupInt resolves integer constants to the dialect's values.
func (t *Translator) LookupInt(s IntSym) int { return t.d.LookupInt(s) }

// ErrClass classifies an upward status code (uncharged, like
// MPI_Error_class).
func (t *Translator) ErrClass(code int) ErrClass { return t.d.ClassOfCode(code) }

func (t *Translator) Send(buf []byte, count int, dtype Handle, dest, tag int, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Send(buf, count, t.In(dtype), t.PeerIn(dest), tag, t.In(comm)))
}

func (t *Translator) Recv(buf []byte, count int, dtype Handle, source, tag int, comm Handle, st *Status) error {
	t.Charge()
	err := t.inner.Recv(buf, count, t.In(dtype), t.PeerIn(source), t.TagIn(tag), t.In(comm), st)
	t.StatusBack(st)
	return t.Err(err)
}

func (t *Translator) Isend(buf []byte, count int, dtype Handle, dest, tag int, comm Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.Isend(buf, count, t.In(dtype), t.PeerIn(dest), tag, t.In(comm))
	return t.made(ClassRequest, n, err)
}

func (t *Translator) Irecv(buf []byte, count int, dtype Handle, source, tag int, comm Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.Irecv(buf, count, t.In(dtype), t.PeerIn(source), t.TagIn(tag), t.In(comm))
	return t.made(ClassRequest, n, err)
}

// Wait keeps the request's mapping when the inner Wait fails: a failure
// of progress leaves the inner request live, and a retried Wait must
// reach it rather than resolve to the null request.
func (t *Translator) Wait(req Handle, st *Status) error {
	t.Charge()
	err := t.inner.Wait(t.In(req), st)
	t.StatusBack(st)
	return t.freed(req, err)
}

func (t *Translator) Test(req Handle, st *Status) (bool, error) {
	t.Charge()
	done, err := t.inner.Test(t.In(req), st)
	if done {
		t.StatusBack(st)
		t.Unmap(req)
	}
	return done, t.Err(err)
}

// Waitall keeps every mapping when the inner Waitall fails (see Wait).
func (t *Translator) Waitall(reqs []Handle, sts []Status) error {
	t.Charge()
	native := make([]Handle, len(reqs))
	for i, r := range reqs {
		native[i] = t.In(r)
	}
	err := t.inner.Waitall(native, sts)
	for i := range sts {
		t.StatusBack(&sts[i])
	}
	if err == nil {
		for _, r := range reqs {
			t.Unmap(r)
		}
	}
	return t.Err(err)
}

func (t *Translator) Sendrecv(sendbuf []byte, scount int, stype Handle, dest, stag int,
	recvbuf []byte, rcount int, rtype Handle, source, rtag int,
	comm Handle, st *Status) error {
	t.Charge()
	err := t.inner.Sendrecv(sendbuf, scount, t.In(stype), t.PeerIn(dest), stag,
		recvbuf, rcount, t.In(rtype), t.PeerIn(source), t.TagIn(rtag), t.In(comm), st)
	t.StatusBack(st)
	return t.Err(err)
}

func (t *Translator) Probe(source, tag int, comm Handle, st *Status) error {
	t.Charge()
	err := t.inner.Probe(t.PeerIn(source), t.TagIn(tag), t.In(comm), st)
	t.StatusBack(st)
	return t.Err(err)
}

func (t *Translator) Iprobe(source, tag int, comm Handle, st *Status) (bool, error) {
	t.Charge()
	found, err := t.inner.Iprobe(t.PeerIn(source), t.TagIn(tag), t.In(comm), st)
	if found {
		t.StatusBack(st)
	}
	return found, t.Err(err)
}

func (t *Translator) Barrier(comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Barrier(t.In(comm)))
}

func (t *Translator) Bcast(buf []byte, count int, dtype Handle, root int, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Bcast(buf, count, t.In(dtype), root, t.In(comm)))
}

func (t *Translator) Reduce(sendbuf, recvbuf []byte, count int, dtype, op Handle, root int, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Reduce(sendbuf, recvbuf, count, t.In(dtype), t.In(op), root, t.In(comm)))
}

func (t *Translator) Allreduce(sendbuf, recvbuf []byte, count int, dtype, op Handle, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Allreduce(sendbuf, recvbuf, count, t.In(dtype), t.In(op), t.In(comm)))
}

func (t *Translator) Gather(sendbuf []byte, scount int, stype Handle,
	recvbuf []byte, rcount int, rtype Handle, root int, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Gather(sendbuf, scount, t.In(stype), recvbuf, rcount, t.In(rtype), root, t.In(comm)))
}

func (t *Translator) Allgather(sendbuf []byte, scount int, stype Handle,
	recvbuf []byte, rcount int, rtype Handle, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Allgather(sendbuf, scount, t.In(stype), recvbuf, rcount, t.In(rtype), t.In(comm)))
}

func (t *Translator) Scatter(sendbuf []byte, scount int, stype Handle,
	recvbuf []byte, rcount int, rtype Handle, root int, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Scatter(sendbuf, scount, t.In(stype), recvbuf, rcount, t.In(rtype), root, t.In(comm)))
}

func (t *Translator) Alltoall(sendbuf []byte, scount int, stype Handle,
	recvbuf []byte, rcount int, rtype Handle, comm Handle) error {
	t.Charge()
	return t.Err(t.inner.Alltoall(sendbuf, scount, t.In(stype), recvbuf, rcount, t.In(rtype), t.In(comm)))
}

func (t *Translator) CommSize(comm Handle) (int, error) {
	t.Charge()
	n, err := t.inner.CommSize(t.In(comm))
	return n, t.Err(err)
}

func (t *Translator) CommRank(comm Handle) (int, error) {
	t.Charge()
	r, err := t.inner.CommRank(t.In(comm))
	return r, t.Err(err)
}

func (t *Translator) CommDup(comm Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.CommDup(t.In(comm))
	return t.made(ClassComm, n, err)
}

func (t *Translator) CommSplit(comm Handle, color, key int) (Handle, error) {
	t.Charge()
	n, err := t.inner.CommSplit(t.In(comm), t.ColorIn(color), key)
	return t.made(ClassComm, n, err)
}

func (t *Translator) CommCreate(comm, group Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.CommCreate(t.In(comm), t.In(group))
	return t.made(ClassComm, n, err)
}

func (t *Translator) CommGroup(comm Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.CommGroup(t.In(comm))
	return t.made(ClassGroup, n, err)
}

func (t *Translator) CommFree(comm Handle) error {
	t.Charge()
	return t.freed(comm, t.inner.CommFree(t.In(comm)))
}

func (t *Translator) GroupSize(group Handle) (int, error) {
	t.Charge()
	n, err := t.inner.GroupSize(t.In(group))
	return n, t.Err(err)
}

func (t *Translator) GroupRank(group Handle) (int, error) {
	t.Charge()
	r, err := t.inner.GroupRank(t.In(group))
	return t.countBack(r), t.Err(err)
}

func (t *Translator) GroupIncl(group Handle, ranks []int) (Handle, error) {
	t.Charge()
	n, err := t.inner.GroupIncl(t.In(group), ranks)
	return t.made(ClassGroup, n, err)
}

func (t *Translator) GroupExcl(group Handle, ranks []int) (Handle, error) {
	t.Charge()
	n, err := t.inner.GroupExcl(t.In(group), ranks)
	return t.made(ClassGroup, n, err)
}

func (t *Translator) GroupTranslateRanks(g1 Handle, ranks []int, g2 Handle) ([]int, error) {
	t.Charge()
	out, err := t.inner.GroupTranslateRanks(t.In(g1), ranks, t.In(g2))
	for i := range out {
		out[i] = t.countBack(out[i])
	}
	return out, t.Err(err)
}

func (t *Translator) GroupFree(group Handle) error {
	t.Charge()
	return t.freed(group, t.inner.GroupFree(t.In(group)))
}

func (t *Translator) TypeContiguous(count int, inner Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.TypeContiguous(count, t.In(inner))
	return t.made(ClassType, n, err)
}

func (t *Translator) TypeVector(count, blocklen, stride int, inner Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.TypeVector(count, blocklen, stride, t.In(inner))
	return t.made(ClassType, n, err)
}

func (t *Translator) TypeIndexed(blocklens, displs []int, inner Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.TypeIndexed(blocklens, displs, t.In(inner))
	return t.made(ClassType, n, err)
}

func (t *Translator) TypeCreateStruct(blocklens, displs []int, typs []Handle) (Handle, error) {
	t.Charge()
	native := make([]Handle, len(typs))
	for i, h := range typs {
		native[i] = t.In(h)
	}
	n, err := t.inner.TypeCreateStruct(blocklens, displs, native)
	return t.made(ClassType, n, err)
}

func (t *Translator) TypeCommit(dtype Handle) error {
	t.Charge()
	return t.Err(t.inner.TypeCommit(t.In(dtype)))
}

func (t *Translator) TypeFree(dtype Handle) error {
	t.Charge()
	return t.freed(dtype, t.inner.TypeFree(t.In(dtype)))
}

func (t *Translator) TypeSize(dtype Handle) (int, error) {
	t.Charge()
	n, err := t.inner.TypeSize(t.In(dtype))
	return n, t.Err(err)
}

func (t *Translator) TypeExtent(dtype Handle) (int, error) {
	t.Charge()
	n, err := t.inner.TypeExtent(t.In(dtype))
	return n, t.Err(err)
}

func (t *Translator) GetCount(st *Status, dtype Handle) (int, error) {
	t.Charge()
	n, err := t.inner.GetCount(st, t.In(dtype))
	return t.countBack(n), t.Err(err)
}

func (t *Translator) OpCreate(name string, commute bool) (Handle, error) {
	t.Charge()
	n, err := t.inner.OpCreate(name, commute)
	return t.made(ClassOp, n, err)
}

func (t *Translator) OpFree(op Handle) error {
	t.Charge()
	return t.freed(op, t.inner.OpFree(t.In(op)))
}

// Abort is not charged: the job ends here.
func (t *Translator) Abort(comm Handle, code int) error {
	return t.Err(t.inner.Abort(t.In(comm), code))
}

// The ULFM (MPIX_*) surface is translated like everything else. This is
// where translation earns its keep for fault tolerance: each
// implementation numbers the proc-failed and revoked classes differently,
// and an application's failure handling survives an implementation swap
// only because Err and StatusBack carry them through the standard classes.

func (t *Translator) CommRevoke(comm Handle) error {
	t.Charge()
	return t.Err(t.inner.CommRevoke(t.In(comm)))
}

func (t *Translator) CommShrink(comm Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.CommShrink(t.In(comm))
	return t.made(ClassComm, n, err)
}

func (t *Translator) CommAgree(comm Handle, flag uint64) (uint64, error) {
	t.Charge()
	out, err := t.inner.CommAgree(t.In(comm), flag)
	return out, t.Err(err)
}

func (t *Translator) CommFailureAck(comm Handle) error {
	t.Charge()
	return t.Err(t.inner.CommFailureAck(t.In(comm)))
}

func (t *Translator) CommFailureGetAcked(comm Handle) (Handle, error) {
	t.Charge()
	n, err := t.inner.CommFailureGetAcked(t.In(comm))
	return t.made(ClassGroup, n, err)
}
