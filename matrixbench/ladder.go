package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mana"
	"repro/internal/mpich"
	"repro/internal/mpicore"
	"repro/internal/mukautuva"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wi4mpi"
)

// The layer ladder sends the same exchange through each layer's public
// entry point, bottom to top. A layer's cost is its rung minus the rung
// below it; the MANA rung sits over Mukautuva.

// exchanger is one rank's handle on a rung.
type exchanger interface {
	// exchange runs one op with the peer; size is the bytes each rank
	// sends to each peer. send and recv hold size bytes per rank.
	exchange(op string, size int, send, recv []byte) error
}

// rung builds rank r's exchanger on a fresh world.
type rung struct {
	name  string
	ops   []string
	build func(w *fabric.World, r int) (exchanger, error)
}

const (
	opSendrecv  = "sendrecv"
	opAllreduce = "allreduce"
	opAlltoall  = "alltoall"
)

var (
	allOps     = []string{opSendrecv, opAllreduce, opAlltoall}
	ladderRank = 2 // world size: rank 0 and one peer
	// ladderSizes are the exchange sizes, with their metric labels.
	ladderSizes = []struct {
		bytes int
		label string
	}{{8, "8B"}, {64 << 10, "64KiB"}}
)

// rungs lists the ladder bottom to top.
var rungs = []rung{
	{"fabric", []string{opSendrecv}, func(w *fabric.World, r int) (exchanger, error) {
		return fabricEx{ep: w.Endpoint(r), peer: 1 - r}, nil
	}},
	{"mpicore", allOps, func(w *fabric.World, r int) (exchanger, error) {
		return coreEx{p: mpicore.NewProc(w, r, coreConsts, coreCodes, mpich.Policy()), peer: 1 - r}, nil
	}},
	{"native", allOps, func(w *fabric.World, r int) (exchanger, error) {
		return newTableEx(mpich.Bind(mpich.Init(w, r)), w, r)
	}},
	{"mukautuva", allOps, func(w *fabric.World, r int) (exchanger, error) {
		shim, err := mukautuva.Load(string(core.ImplMPICH), w, r, mukautuva.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return newTableEx(shim, w, r)
	}},
	{"wi4mpi", allOps, func(w *fabric.World, r int) (exchanger, error) {
		pre, err := wi4mpi.Load(string(core.ImplMPICH), w, r, wi4mpi.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return newTableEx(pre, w, r)
	}},
	{"mana", allOps, func(w *fabric.World, r int) (exchanger, error) {
		shim, err := mukautuva.Load(string(core.ImplMPICH), w, r, mukautuva.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return newTableEx(mana.NewWrapper(shim, w, r, mana.DefaultConfig()), w, r)
	}},
}

// The mpicore rung runs the shared runtime bare, with the standard
// vocabulary: constants and codes never touch the hot path.
var coreConsts = mpicore.Consts{
	AnySource: abi.AnySource, AnyTag: abi.AnyTag, ProcNull: abi.ProcNull,
	TagUB: abi.TagUB, Undefined: abi.Undefined,
}

var coreCodes = mpicore.Codes{
	ErrBuffer: 1, ErrCount: 2, ErrType: 3, ErrTag: 4, ErrComm: 5,
	ErrRank: 6, ErrRequest: 7, ErrRoot: 8, ErrGroup: 9, ErrOp: 10,
	ErrArg: 11, ErrTruncate: 12, ErrIntern: 15, ErrOther: 16,
}

type fabricEx struct {
	ep   *fabric.Endpoint
	peer int
}

func (x fabricEx) exchange(_ string, size int, send, recv []byte) error {
	e := fabric.GetEnvelope()
	e.Dst = x.peer
	e.Proto = fabric.ProtoEager
	e.Payload = send[:size]
	x.ep.Send(e)
	in := x.ep.Recv()
	if in == nil {
		return fmt.Errorf("fabric: world closed")
	}
	copy(recv, in.Payload)
	fabric.PutEnvelope(in)
	return nil
}

type coreEx struct {
	p    *mpicore.Proc
	peer int
}

func (x coreEx) exchange(op string, size int, send, recv []byte) error {
	p, c := x.p, x.p.CommWorld
	var code int
	switch op {
	case opSendrecv:
		b := p.Predef(types.KindByte)
		code = p.Sendrecv(send[:size], size, b, x.peer, 0, recv[:size], size, b, x.peer, 0, c, nil)
	case opAllreduce:
		code = p.Allreduce(send[:size], recv[:size], size/8, p.Predef(types.KindInt64), p.PredefOp(ops.OpSum), c)
	case opAlltoall:
		b := p.Predef(types.KindByte)
		code = p.Alltoall(send, size, b, recv, size, b, c)
	}
	if code != p.E.Success {
		return fmt.Errorf("mpicore %s: code %d", op, code)
	}
	return nil
}

// tableEx drives any abi.FuncTable: the native binding, either shim,
// or the MANA wrapper.
type tableEx struct {
	env  *abi.Env
	peer int
	st   abi.Status
}

func newTableEx(t abi.FuncTable, w *fabric.World, r int) (exchanger, error) {
	env, err := abi.NewEnv(t, w.Endpoint(r).Clock())
	if err != nil {
		return nil, err
	}
	return &tableEx{env: env, peer: 1 - r}, nil
}

func (x *tableEx) exchange(op string, size int, send, recv []byte) error {
	e := x.env
	switch op {
	case opSendrecv:
		return e.T.Sendrecv(send[:size], size, e.TypeByte, x.peer, 0, recv[:size], size, e.TypeByte, x.peer, 0, e.CommWorld, &x.st)
	case opAllreduce:
		return e.T.Allreduce(send[:size], recv[:size], size/8, e.TypeInt64, e.OpSum, e.CommWorld)
	case opAlltoall:
		return e.T.Alltoall(send, size, e.TypeByte, recv, size, e.TypeByte, e.CommWorld)
	}
	return fmt.Errorf("unknown op %q", op)
}

// ladderBatches is how many timed batches each rung/op/size runs; the
// reported figure is the median batch.
const ladderBatches = 7

// ladderIters is the ops per batch: about ten milliseconds of work.
func ladderIters(size int) int {
	if size <= 64 {
		return 3000
	}
	return 100
}

// rungCost is one rung/op/size measurement: wall ns and heap
// allocations (over both ranks) per op, each the median batch.
type rungCost struct {
	ns, allocs float64
}

// measureRung runs warm-up plus ladderBatches timed batches of one op on
// a fresh two-rank world. Both ranks run the same op count in lockstep;
// rank 0 times the batches.
func measureRung(rg rung, op string, size int) (rungCost, error) {
	w, err := fabric.NewWorld(simnet.SingleNode(ladderRank))
	if err != nil {
		return rungCost{}, err
	}
	defer w.Close()
	iters := ladderIters(size)
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		ns       []float64
		allocs   []float64
	)
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	readAllocs := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	for r := 0; r < ladderRank; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			fail := func(err error) {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("%s %s %dB rank %d: %w", rg.name, op, size, r, err)
				}
				errMu.Unlock()
				w.Close()
			}
			ex, err := rg.build(w, r)
			if err != nil {
				fail(err)
				return
			}
			send := make([]byte, size*ladderRank)
			recv := make([]byte, size*ladderRank)
			for i := range send {
				send[i] = byte(i + r)
			}
			for i := 0; i < iters/10+1; i++ {
				if err := ex.exchange(op, size, send, recv); err != nil {
					fail(err)
					return
				}
			}
			for b := 0; b < ladderBatches; b++ {
				var a0 float64
				var t0 time.Time
				if r == 0 {
					a0, t0 = readAllocs(), time.Now()
				}
				for i := 0; i < iters; i++ {
					if err := ex.exchange(op, size, send, recv); err != nil {
						fail(err)
						return
					}
				}
				if r == 0 {
					ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(iters))
					allocs = append(allocs, (readAllocs()-a0)/float64(iters))
				}
			}
		})
	}
	wg.Wait()
	if firstErr != nil {
		return rungCost{}, firstErr
	}
	return rungCost{ns: median(ns), allocs: median(allocs)}, nil
}

// ladderMetrics measures every rung/op/size and names each figure
// ladder.<rung>.<op>.<size>.{ns,allocs}.
func ladderMetrics(put func(name string, v float64, unit string)) error {
	for _, rg := range rungs {
		for _, op := range rg.ops {
			for _, sz := range ladderSizes {
				c, err := measureRung(rg, op, sz.bytes)
				if err != nil {
					return err
				}
				base := fmt.Sprintf("ladder.%s.%s.%s", rg.name, op, sz.label)
				put(base+".ns", c.ns, "ns/op")
				put(base+".allocs", c.allocs, "allocs/op")
			}
		}
	}
	return nil
}
