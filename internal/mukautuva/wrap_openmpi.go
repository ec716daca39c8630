package mukautuva

import (
	"repro/internal/fabric"
	"repro/internal/openmpi"
)

// wrap_openmpi.go is the libompi-wrap.so analog (see wrap_mpich.go).

func init() {
	Register("openmpi", func(w *fabric.World, rank int) (*WrapLib, error) {
		p := openmpi.Init(w, rank)
		return &WrapLib{
			Table:    openmpi.Bind(p),
			Version:  openmpi.Version,
			Finalize: func() { p.Finalize() },
		}, nil
	})
}
