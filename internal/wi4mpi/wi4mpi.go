// Package wi4mpi reproduces Wi4MPI's "preload" mode, the alternative
// interoperability strategy the paper surveys in Section 4.2.2: instead of
// compiling the application against a standardized ABI, the application
// stays compiled against one implementation's ABI (MPICH's here, the
// common case Wi4MPI targets), and a translation layer converts every
// call on the fly to whatever implementation is actually loaded at
// runtime.
//
// Contrast with internal/mukautuva: Mukautuva translates FROM the
// standard ABI, Wi4MPI translates FROM a concrete implementation's ABI.
// Both are one abi.Translator with a different upward Dialect, landing on
// the same wrap adapters. Having both in the repository makes the
// paper's taxonomy executable — and the MANA wrapper stacks on either,
// since it resolves its constants through whatever table it is given.
//
// In the README's layer diagram Wi4MPI is the MPICH-dialect
// configuration of abi.Translator (Section 4.2.2).
package wi4mpi

import (
	"time"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/mpich"
	"repro/internal/mukautuva"
)

// Config tunes the translator's virtual-time cost. Wi4MPI's published
// overhead is higher than Mukautuva's for small messages (the paper notes
// "high overhead for small messages" among its limitations), which the
// default reflects.
type Config struct {
	// PerCall is the on-the-fly translation cost charged per MPI call.
	PerCall time.Duration
}

// DefaultConfig reflects Wi4MPI's heavier per-call translation.
func DefaultConfig() Config { return Config{PerCall: 450 * time.Nanosecond} }

// dialect is the source-ABI vocabulary the application was compiled
// against: MPICH's handle values, integer constants and error codes,
// exactly what mpich.Bind hands out. Handles for runtime objects are
// minted as plain integers above MPICH's payload space.
var dialect = abi.Dialect{
	Lookup:      mpich.Lookup,
	LookupInt:   mpich.LookupInt,
	ClassOf:     mpich.ObjectClass,
	Mint:        func(_ abi.Class, n uint64) abi.Handle { return abi.Handle(n) },
	MintBase:    1 << 22,
	CodeOf:      mpich.CodeOfClass,
	ClassOfCode: mpich.ClassOfCode,
}

// Preload is the Wi4MPI preload-mode translator: the MPICH-dialect
// configuration of abi.Translator over any wrap adapter. In the ULFM
// corner the application branches on MPICH's 71/72 MPIX codes, and the
// translator renumbers the target's proc-failed/revoked codes into them.
type Preload struct {
	*abi.Translator
	name string
}

// Load selects the runtime implementation by name (the analog of Wi4MPI's
// WI4MPI_TO environment variable) and builds the translator.
func Load(target string, w *fabric.World, rank int, cfg Config) (*Preload, error) {
	lib, err := mukautuva.LoadLib(target, w, rank)
	if err != nil {
		return nil, err
	}
	t := abi.NewTranslator(dialect, lib.Table, w.Endpoint(rank).Clock(),
		cfg.PerCall, "wi4mpi->"+target, "wi4mpi("+target+")")
	return &Preload{Translator: t, name: target}, nil
}

// Target names the implementation actually running underneath.
func (p *Preload) Target() string { return p.name }
