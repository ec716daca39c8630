package mukautuva

import (
	"repro/internal/fabric"
	"repro/internal/stdabi"
)

// wrap_stdabi.go is the wrap adapter for the standard-ABI-native
// implementation (see wrap_mpich.go for the scheme). It is the smallest
// of the three: stdabi's native vocabulary already matches what the shim
// speaks, so the adapter's translation symbols are identities — loading
// it demonstrates that a standard-ABI implementation slots into the
// compatibility layer for free, which is the future the paper's Section 6
// anticipates where libmuk.so becomes unnecessary.
func init() {
	Register("stdabi", func(w *fabric.World, rank int) (*WrapLib, error) {
		p := stdabi.Init(w, rank)
		return &WrapLib{
			Table:    stdabi.Bind(p),
			Version:  stdabi.Version,
			Finalize: func() { p.Finalize() },
		}, nil
	})
}
