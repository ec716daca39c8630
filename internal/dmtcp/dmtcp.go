// Package dmtcp reproduces the control plane of the DMTCP checkpointing
// platform: a coordinator that drives coordinated checkpoints across all
// ranks through a phased protocol, with plugin hooks for MPI-specific work
// (internal/mana registers as the plugin, exactly as MANA is a DMTCP
// plugin in the paper).
//
// The protocol runs at application safe points. Every rank calls
// Agent.SafePoint between program steps; the call is a consensus round:
// if any rank has observed a checkpoint request, all ranks enter the
// checkpoint phases together:
//
//	vote -> quiesce barrier -> plugin drain -> write images -> resume/exit
//
// Interrupting a rank blocked inside an MPI call — which real DMTCP does
// with signals and which Go cannot do to a goroutine — is replaced by the
// step-boundary consensus; see DESIGN.md for the substitution note.
//
// In the README's layer diagram DMTCP is the control plane behind the
// mana entry of the bindings-and-translator row (Section 3 of the paper);
// internal/mana registers as its MPI plugin, exactly as MANA is a DMTCP
// plugin in the paper.
package dmtcp

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/fabric"
	"repro/internal/simnet"
)

// Meta describes a checkpoint image set; it is written once by rank 0 as
// meta.gob in the image directory.
type Meta struct {
	// NumRanks is the world size of the checkpointed job.
	NumRanks int
	// Impl is the MPI implementation name the job ran under at
	// checkpoint time.
	Impl string
	// ABI is the binding mode the job ran under ("native", "mukautuva",
	// "wi4mpi"); together with Impl and Ckpt it is the image's lineage.
	ABI string
	// Ckpt is the checkpointing package that wrote the images ("mana" or
	// "dmtcp"). Empty on images from before this field existed (treated as
	// "mana" by the restart path).
	Ckpt string
	// StandardABI records whether the job ran through the Mukautuva shim.
	// Only standard-ABI images may be restarted under a different
	// implementation — the paper's core claim as an invariant.
	StandardABI bool
	// Program is the registered program type name (for gob decoding).
	Program string
	// Step is the program step index at which the checkpoint was taken.
	Step uint64
	// NetSeed preserves the network jitter stream across restarts.
	NetSeed int64
}

// RankImage is one rank's checkpoint image (rank_NNN.img). ProgState and
// PluginBlob are opaque to DMTCP, mirroring how the real coordinator
// treats process memory and plugin data.
type RankImage struct {
	Rank       int
	Step       uint64
	Clock      int64 // virtual time at checkpoint
	ProgState  []byte
	PluginBlob []byte
}

// Plugin is the per-rank checkpoint participant (MANA implements this).
type Plugin interface {
	// PreCheckpoint quiesces and serializes the plugin's state. It runs
	// after the quiesce barrier, so every rank is inside the protocol.
	PreCheckpoint() ([]byte, error)
	// Resume runs after images are written when the job continues.
	Resume() error
}

// NopPlugin is the plugin used when no checkpointing package is loaded.
type NopPlugin struct{}

// PreCheckpoint returns an empty blob.
func (NopPlugin) PreCheckpoint() ([]byte, error) { return nil, nil }

// Resume does nothing.
func (NopPlugin) Resume() error { return nil }

// Decision tells the runner what to do after a safe point.
type Decision int

// Safe point outcomes.
const (
	DecisionContinue     Decision = iota // no checkpoint happened; keep running
	DecisionCheckpointed                 // checkpoint written; keep running
	DecisionExit                         // checkpoint written; stop the job
)

type ckptRequest struct {
	dir  string
	exit bool
	errs chan error
}

// Periodic configures automatic checkpoints: one image set lands in
// PeriodicDir(Dir, step) at every step divisible by Every. Because all
// ranks pass the same safe points, every rank decides a periodic
// checkpoint is due locally, with no extra vote; the result is the image
// lineage a recovery driver restarts from after a failure (see
// core.RunWithRecovery and LatestComplete).
type Periodic struct {
	Dir   string
	Every uint64
}

// Coordinator orchestrates checkpoints for one world. It is shared by all
// rank agents in-process, standing in for the DMTCP coordinator daemon.
type Coordinator struct {
	w    *fabric.World
	meta Meta

	mu       sync.Mutex
	req      *ckptRequest
	periodic Periodic
	closed   bool
}

// NewCoordinator builds a coordinator for a world. meta supplies the
// stack facts recorded into every checkpoint.
func NewCoordinator(w *fabric.World, meta Meta) *Coordinator {
	meta.NumRanks = w.Size()
	return &Coordinator{w: w, meta: meta}
}

// RequestCheckpoint asks the job to checkpoint into dir at its next safe
// point. The returned channel yields one error (nil on success) when the
// checkpoint completes. With exit=true the job stops after checkpointing.
func (c *Coordinator) RequestCheckpoint(dir string, exit bool) <-chan error {
	errs := make(chan error, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		errs <- fmt.Errorf("dmtcp: job already finished")
		return errs
	}
	if c.req != nil {
		errs <- fmt.Errorf("dmtcp: checkpoint already in progress")
		return errs
	}
	c.req = &ckptRequest{dir: dir, exit: exit, errs: errs}
	return errs
}

// SetPeriodic installs the periodic checkpoint schedule. Call before the
// job's ranks start taking safe points.
func (c *Coordinator) SetPeriodic(p Periodic) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.periodic = p
}

func (c *Coordinator) periodicCfg() Periodic {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.periodic
}

// pendingFlag is read during the safe-point vote.
func (c *Coordinator) pendingFlag() byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.req != nil {
		return 1
	}
	return 0
}

func (c *Coordinator) current() *ckptRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.req
}

// AbortPending fails any in-flight checkpoint request; the job runner
// calls it when the application exits before reaching another safe point.
func (c *Coordinator) AbortPending(err error) {
	c.mu.Lock()
	req := c.req
	c.req = nil
	c.closed = true
	c.mu.Unlock()
	if req != nil {
		req.errs <- err //mpivet:allow parksafe -- errs has capacity 1 and req is claimed under c.mu, so exactly one resolver ever sends
	}
}

// finish completes the in-flight request (rank 0 only).
func (c *Coordinator) finish(err error) {
	c.mu.Lock()
	req := c.req
	c.req = nil
	c.mu.Unlock()
	if req != nil {
		req.errs <- err //mpivet:allow parksafe -- errs has capacity 1 and req is claimed under c.mu, so exactly one resolver ever sends
	}
}

// Agent is one rank's attachment to the coordinator.
type Agent struct {
	c     *Coordinator
	rank  int
	clock *simnet.Clock
	step  uint64
}

// NewAgent attaches rank to the coordinator.
func (c *Coordinator) NewAgent(rank int) *Agent {
	return &Agent{c: c, rank: rank, clock: c.w.Endpoint(rank).Clock()}
}

// Step returns the number of safe points this agent has passed.
func (a *Agent) Step() uint64 { return a.step }

// SetStep is used on restart to resume the step counter.
func (a *Agent) SetStep(s uint64) { a.step = s }

// SafePoint is the per-step consensus + checkpoint driver. The runner
// calls it between program steps with a serializer for the rank's program
// state. All ranks call SafePoint the same number of times.
func (a *Agent) SafePoint(serialize func() ([]byte, error), plugin Plugin) (Decision, error) {
	a.step++
	// Vote round: does anyone see a pending request?
	votes := a.c.w.OOB().Exchange(a.rank, []byte{a.c.pendingFlag()})
	if votes == nil {
		return DecisionContinue, fmt.Errorf("dmtcp: world closed during vote")
	}
	any := false
	for _, v := range votes {
		if len(v) > 0 && v[0] == 1 {
			any = true
		}
	}
	if !any {
		// No explicit request anywhere; a due periodic checkpoint still
		// runs. Every rank computes the same verdict (same step, same
		// schedule), so the quiesce/drain barriers inside runCheckpoint
		// line up without an extra vote. An explicit request landing on a
		// periodic step takes priority and the periodic image is skipped
		// — the explicit image captures the same state.
		per := a.c.periodicCfg()
		if per.Every == 0 || a.step%per.Every != 0 {
			return DecisionContinue, nil
		}
		req := &ckptRequest{dir: PeriodicDir(per.Dir, a.step)}
		if err := a.runCheckpoint(req, serialize, plugin); err != nil {
			return DecisionContinue, err
		}
		if perr := plugin.Resume(); perr != nil {
			return DecisionCheckpointed, perr
		}
		return DecisionCheckpointed, nil
	}
	req := a.c.current()
	if req == nil {
		// finished between vote and read — cannot happen (cleared only
		// after the completion barrier below), but fail loudly if it does.
		return DecisionContinue, fmt.Errorf("dmtcp: vote without request")
	}
	err := a.runCheckpoint(req, serialize, plugin)
	// Completion barrier, then rank 0 resolves the request. A second
	// barrier keeps any rank from re-voting before the request clears.
	failed := byte(0)
	if err != nil {
		failed = 1
	}
	outcome := a.c.w.OOB().Exchange(a.rank, []byte{failed})
	if a.rank == 0 {
		var firstErr error
		for r, v := range outcome {
			if len(v) > 0 && v[0] == 1 {
				firstErr = fmt.Errorf("dmtcp: checkpoint failed on rank %d (first)", r)
				break
			}
		}
		if err != nil {
			firstErr = err
		}
		a.c.finish(firstErr)
	}
	a.c.w.OOB().Exchange(a.rank, nil)
	if err != nil {
		return DecisionContinue, err
	}
	if req.exit {
		return DecisionExit, nil
	}
	if perr := plugin.Resume(); perr != nil {
		return DecisionCheckpointed, perr
	}
	return DecisionCheckpointed, nil
}

// runCheckpoint executes the drain + write phases for one rank. A rank
// that fails locally must still participate in every barrier, or it would
// strand its peers mid-protocol; the first error is carried through and
// returned at the end.
func (a *Agent) runCheckpoint(req *ckptRequest, serialize func() ([]byte, error), plugin Plugin) error {
	var firstErr error
	// Quiesce barrier: every rank is now inside the protocol, so no new
	// application MPI traffic can be injected while the plugin drains.
	if a.c.w.OOB().Exchange(a.rank, nil) == nil {
		return fmt.Errorf("dmtcp: world closed during quiesce")
	}
	var blob []byte
	if b, err := plugin.PreCheckpoint(); err != nil {
		firstErr = fmt.Errorf("dmtcp: plugin drain on rank %d: %w", a.rank, err)
	} else {
		blob = b
	}
	// Drain-complete barrier: images must not be written while a peer is
	// still pulling messages out of the fabric.
	if a.c.w.OOB().Exchange(a.rank, nil) == nil {
		return fmt.Errorf("dmtcp: world closed during drain barrier")
	}
	if firstErr != nil {
		return firstErr
	}
	state, err := serialize()
	if err != nil {
		return fmt.Errorf("dmtcp: serializing rank %d: %w", a.rank, err)
	}
	img := RankImage{
		Rank:       a.rank,
		Step:       a.step,
		Clock:      int64(a.clock.Now()),
		ProgState:  state,
		PluginBlob: blob,
	}
	if err := writeRankImage(req.dir, img); err != nil {
		return err
	}
	if a.rank == 0 {
		meta := a.c.meta
		meta.Step = a.step
		if err := writeMeta(req.dir, meta); err != nil {
			return err
		}
	}
	return nil
}

// --- image file I/O ---

func rankImagePath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank_%04d.img", rank))
}

func metaPath(dir string) string { return filepath.Join(dir, "meta.gob") }

func writeRankImage(dir string, img RankImage) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dmtcp: creating image dir: %w", err)
	}
	f, err := os.Create(rankImagePath(dir, img.Rank))
	if err != nil {
		return fmt.Errorf("dmtcp: creating rank image: %w", err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(img); err != nil {
		return fmt.Errorf("dmtcp: encoding rank image: %w", err)
	}
	return nil
}

func writeMeta(dir string, meta Meta) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dmtcp: creating image dir: %w", err)
	}
	f, err := os.Create(metaPath(dir))
	if err != nil {
		return fmt.Errorf("dmtcp: creating meta: %w", err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(meta); err != nil {
		return fmt.Errorf("dmtcp: encoding meta: %w", err)
	}
	return nil
}

// PeriodicDir returns the image directory of the periodic checkpoint
// taken at the given step under root.
func PeriodicDir(root string, step uint64) string {
	return filepath.Join(root, fmt.Sprintf("step_%06d", step))
}

// LatestComplete scans root for periodic image sets and returns the most
// recent complete one: meta present and decodable, the expected rank
// count (nranks; 0 accepts any), and every rank's image file on disk. A
// checkpoint interrupted by the failure it was meant to survive leaves a
// partial directory, which the scan skips — recovery falls back to the
// image before it.
func LatestComplete(root string, nranks int) (dir string, meta Meta, ok bool) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return "", Meta{}, false
	}
	// ReadDir sorts ascending; walk backwards for the newest step first.
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "step_") {
			continue
		}
		d := filepath.Join(root, e.Name())
		m, err := ReadMeta(d)
		if err != nil || (nranks > 0 && m.NumRanks != nranks) {
			continue
		}
		complete := true
		for r := 0; r < m.NumRanks; r++ {
			if _, err := os.Stat(rankImagePath(d, r)); err != nil {
				complete = false
				break
			}
		}
		if complete {
			return d, m, true
		}
	}
	return "", Meta{}, false
}

// ReadMeta loads the image set descriptor from a checkpoint directory.
func ReadMeta(dir string) (Meta, error) {
	var meta Meta
	f, err := os.Open(metaPath(dir))
	if err != nil {
		return meta, fmt.Errorf("dmtcp: opening meta: %w", err)
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(&meta); err != nil {
		return meta, fmt.Errorf("dmtcp: decoding meta: %w", err)
	}
	return meta, nil
}

// ReadRankImage loads one rank's image from a checkpoint directory.
func ReadRankImage(dir string, rank int) (RankImage, error) {
	var img RankImage
	f, err := os.Open(rankImagePath(dir, rank))
	if err != nil {
		return img, fmt.Errorf("dmtcp: opening rank image: %w", err)
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(&img); err != nil {
		return img, fmt.Errorf("dmtcp: decoding rank image: %w", err)
	}
	if img.Rank != rank {
		return img, fmt.Errorf("dmtcp: image rank %d does not match file for rank %d", img.Rank, rank)
	}
	return img, nil
}
