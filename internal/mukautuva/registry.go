// Package mukautuva reproduces the Mukautuva ABI compatibility layer
// (Hammond, 2023): a shared library (libmuk.so, the Shim here) that
// implements the proposed standard MPI ABI by translating every handle,
// constant, status object and error code to whichever real MPI
// implementation was selected at runtime through a per-implementation
// wrap adapter (libmpich-wrap.so / libompi-wrap.so, the WrapLib here).
//
// An application (or a checkpointing package like internal/mana) bound to
// the Shim is "compiled once": the same binary state — including
// serialized handles in a checkpoint image — remains meaningful when the
// underlying implementation is swapped, which is exactly the property the
// paper's cross-implementation restart experiment (Figure 6) relies on.
//
// In the README's layer diagram the shim is the standard-dialect
// configuration of abi.Translator (Section 4.2.1).
package mukautuva

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/abi"
	"repro/internal/fabric"
)

// WrapLib is one loaded wrap adapter: the implementation's function table
// plus the extra symbols Mukautuva needs beyond the MPI API itself.
type WrapLib struct {
	// Table is the implementation's native function table; its ErrClass
	// is the wrap library's MPI_Error_class symbol.
	Table abi.FuncTable
	// Version is the implementation's version banner.
	Version string
	// Finalize releases the lower-half library instance.
	Finalize func()
}

// Loader instantiates a wrap adapter for one rank. It is the analog of
// dlopen()ing libmpich-wrap.so inside libmuk.so.
type Loader func(w *fabric.World, rank int) (*WrapLib, error)

var registry = struct {
	sync.RWMutex
	m map[string]Loader
}{m: make(map[string]Loader)}

// Register installs a wrap adapter under an implementation name. The
// adapters in this package self-register in init(); external
// implementations may register their own.
func Register(name string, l Loader) {
	if name == "" || l == nil {
		panic("mukautuva: empty registration")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("mukautuva: duplicate wrap adapter %q", name))
	}
	registry.m[name] = l
}

// Implementations lists the registered wrap adapters, sorted.
func Implementations() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.m))
	for name := range registry.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Config tunes the shim's virtual-time cost model. Every translated call
// charges PerCall to the rank's clock, reproducing the per-call overhead
// the paper measures for the Mukautuva layer.
type Config struct {
	// PerCall is the translation cost charged per MPI call.
	PerCall time.Duration
}

// DefaultConfig matches the calibration used for the paper figures.
func DefaultConfig() Config {
	return Config{PerCall: 180 * time.Nanosecond}
}

// LoadLib instantiates a wrap adapter by name without the standard-ABI
// shim on top. Alternative translators (internal/wi4mpi's preload mode)
// build their own front end over the same adapters.
func LoadLib(name string, w *fabric.World, rank int) (*WrapLib, error) {
	registry.RLock()
	loader, ok := registry.m[name]
	registry.RUnlock()
	if !ok {
		return nil, abi.Errorf(abi.ErrArg, "mukautuva",
			"no wrap adapter for implementation %q (have %v)", name, Implementations())
	}
	return loader(w, rank)
}

// Load selects an implementation by name and builds the standard-ABI shim
// over it — the runtime moment the paper's Figure 1 labels "libmuk.so
// dynamically detects the MPI library and loads libmpich-wrap.so".
func Load(name string, w *fabric.World, rank int, cfg Config) (*Shim, error) {
	lib, err := LoadLib(name, w, rank)
	if err != nil {
		return nil, err
	}
	t := abi.NewTranslator(abi.StdDialect, lib.Table, w.Endpoint(rank).Clock(),
		cfg.PerCall, name, "mukautuva("+name+")")
	return &Shim{Translator: t, name: name, lib: lib}, nil
}
