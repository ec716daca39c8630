package mukautuva

import (
	"repro/internal/abi"
)

// Shim is the libmuk.so analog: the standard-ABI configuration of
// abi.Translator over a wrap adapter's function table. Its handle space,
// constants, status conventions and error classes are the standard ABI's;
// every call is translated onto the loaded implementation, and the
// per-call translation cost is charged to the rank's virtual clock, which
// makes the shim's overhead visible to the latency harness exactly as the
// real library's overhead is visible to OSU.
type Shim struct {
	*abi.Translator
	name      string
	lib       *WrapLib
	finalized bool
}

// Name returns the loaded implementation's registry name.
func (s *Shim) Name() string { return s.name }

// Version returns the lower library's version banner.
func (s *Shim) Version() string { return s.lib.Version }

// Finalize releases the lower half. The shim becomes unusable.
func (s *Shim) Finalize() {
	if s.finalized {
		return
	}
	s.finalized = true
	if s.lib.Finalize != nil {
		s.lib.Finalize()
	}
}
