// Package comd reproduces the communication and compute signature of the
// CoMD molecular-dynamics proxy application, the first real-world workload
// in the paper's Figure 5: short-range Lennard-Jones dynamics with a
// spatially decomposed particle set, per-step halo exchange of boundary
// particles with neighbor ranks, velocity-Verlet integration, and a global
// energy reduction.
//
// The decomposition is 1-D over a 3-D periodic box (the paper's runs use
// 48 ranks on a modest problem, where the halo pattern, message sizes in
// the tens of kilobytes, and one allreduce per step are what the MPI stack
// sees).
//
// In the README's layer diagram CoMD is the applications row: compiled
// once against internal/abi, oblivious to every layer below.
package comd

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/abi"
	"repro/internal/apps/binstate"
	"repro/internal/core"
)

// Particle is one atom's dynamic state (checkpointed through
// CoMD.MarshalBinary).
type Particle struct {
	X, Y, Z    float64
	Vx, Vy, Vz float64
}

// CoMD is the per-rank program state. Exported fields are checkpointed,
// through MarshalBinary.
type CoMD struct {
	// Parameters.
	ParticlesPerRank int
	Steps            int
	BoxSide          float64 // periodic box edge length (per-rank slab depth in X)
	Cutoff           float64
	Dt               float64
	// ComputeNsPerPair models the force kernel's virtual cost per
	// interacting pair examined; the kernel also really executes.
	ComputeNsPerPair float64
	// Seed feeds the OS-noise model (per-step compute jitter).
	Seed int64

	// State.
	Iter       int
	Atoms      []Particle
	KineticE   float64
	PotentialE float64
}

// New returns the paper-scale configuration.
func New() *CoMD {
	return &CoMD{
		ParticlesPerRank: 384,
		Steps:            300,
		BoxSide:          6.0,
		Cutoff:           1.6,
		Dt:               0.0005,
		ComputeNsPerPair: 18,
	}
}

// Setup seeds the rank's slab with a jittered lattice, deterministic per
// rank.
func (c *CoMD) Setup(env *abi.Env) error {
	if c.ParticlesPerRank <= 0 {
		return fmt.Errorf("comd: ParticlesPerRank must be positive")
	}
	rng := rand.New(rand.NewSource(int64(env.Rank()) + 7))
	c.Atoms = make([]Particle, c.ParticlesPerRank)
	side := int(math.Ceil(math.Cbrt(float64(c.ParticlesPerRank))))
	spacing := c.BoxSide / float64(side)
	for i := range c.Atoms {
		ix, iy, iz := i%side, (i/side)%side, i/(side*side)
		c.Atoms[i] = Particle{
			X:  (float64(ix) + 0.1*rng.Float64()) * spacing,
			Y:  (float64(iy) + 0.1*rng.Float64()) * spacing,
			Z:  (float64(iz) + 0.1*rng.Float64()) * spacing,
			Vx: rng.NormFloat64() * 0.05,
			Vy: rng.NormFloat64() * 0.05,
			Vz: rng.NormFloat64() * 0.05,
		}
	}
	return nil
}

// packPositions serializes the slab boundary atoms (all atoms here: the
// slab is thin, as in small-per-rank CoMD runs) for the halo exchange.
func (c *CoMD) packPositions() []byte {
	vals := make([]float64, 3*len(c.Atoms))
	for i, a := range c.Atoms {
		vals[3*i], vals[3*i+1], vals[3*i+2] = a.X, a.Y, a.Z
	}
	return abi.Float64Bytes(vals)
}

// ljForce accumulates the Lennard-Jones force on atom a from a neighbor
// position, returning the pair potential energy contribution.
func ljForce(a *Particle, fx, fy, fz *float64, nx, ny, nz, cutoff2 float64) float64 {
	dx, dy, dz := a.X-nx, a.Y-ny, a.Z-nz
	r2 := dx*dx + dy*dy + dz*dz
	if r2 > cutoff2 || r2 < 1e-9 {
		return 0
	}
	inv2 := 1.0 / r2
	inv6 := inv2 * inv2 * inv2
	f := 24 * inv2 * inv6 * (2*inv6 - 1)
	*fx += f * dx
	*fy += f * dy
	*fz += f * dz
	return 4 * inv6 * (inv6 - 1)
}

// Step is one velocity-Verlet iteration: exchange halo positions with both
// X-neighbors, compute LJ forces against local + halo atoms, integrate,
// and reduce the total energy.
func (c *CoMD) Step(env *abi.Env) (bool, error) {
	n, me := env.Size(), env.Rank()
	left, right := (me-1+n)%n, (me+1)%n
	mine := c.packPositions()

	var fromLeft, fromRight []byte
	if n > 1 {
		fromLeft = make([]byte, len(mine))
		fromRight = make([]byte, len(mine))
		r1, err := env.T.Irecv(fromLeft, len(fromLeft), env.TypeByte, left, 21, env.CommWorld)
		if err != nil {
			return false, err
		}
		r2, err := env.T.Irecv(fromRight, len(fromRight), env.TypeByte, right, 22, env.CommWorld)
		if err != nil {
			return false, err
		}
		if err := env.T.Send(mine, len(mine), env.TypeByte, right, 21, env.CommWorld); err != nil {
			return false, err
		}
		if err := env.T.Send(mine, len(mine), env.TypeByte, left, 22, env.CommWorld); err != nil {
			return false, err
		}
		if err := env.T.Waitall([]abi.Handle{r1, r2}, nil); err != nil {
			return false, err
		}
	}
	// Neighbor slabs sit at X-offsets of one box side: rank r-1's box is
	// the slab at [-side, 0), rank r+1's at [side, 2*side). Without the
	// offsets, halo atoms would alias local coordinates and the potential
	// would blow up.
	haloLeft := abi.Float64sOf(fromLeft)
	for j := 0; j+2 < len(haloLeft); j += 3 {
		haloLeft[j] -= c.BoxSide
	}
	haloRight := abi.Float64sOf(fromRight)
	for j := 0; j+2 < len(haloRight); j += 3 {
		haloRight[j] += c.BoxSide
	}
	halo := append(haloLeft, haloRight...)
	local := abi.Float64sOf(mine)

	cutoff2 := c.Cutoff * c.Cutoff
	pairs := 0
	var potential float64
	for i := range c.Atoms {
		a := &c.Atoms[i]
		var fx, fy, fz float64
		for j := 0; j+2 < len(local); j += 3 {
			if j/3 == i {
				continue
			}
			potential += ljForce(a, &fx, &fy, &fz, local[j], local[j+1], local[j+2], cutoff2)
			pairs++
		}
		for j := 0; j+2 < len(halo); j += 3 {
			potential += ljForce(a, &fx, &fy, &fz, halo[j], halo[j+1], halo[j+2], cutoff2)
			pairs++
		}
		// Velocity Verlet (unit mass), with positions wrapped into the box.
		a.Vx += fx * c.Dt
		a.Vy += fy * c.Dt
		a.Vz += fz * c.Dt
		a.X = wrap(a.X+a.Vx*c.Dt, c.BoxSide)
		a.Y = wrap(a.Y+a.Vy*c.Dt, c.BoxSide)
		a.Z = wrap(a.Z+a.Vz*c.Dt, c.BoxSide)
	}
	cost := float64(pairs) * c.ComputeNsPerPair
	cost *= 1 + 0.05*noise(c.Seed, int64(c.Iter), int64(me))
	env.Compute(time.Duration(cost))

	var kinetic float64
	for _, a := range c.Atoms {
		kinetic += 0.5 * (a.Vx*a.Vx + a.Vy*a.Vy + a.Vz*a.Vz)
	}
	out := make([]byte, 16)
	if err := env.T.Allreduce(abi.Float64Bytes([]float64{kinetic, potential / 2}), out, 2,
		env.TypeFloat64, env.OpSum, env.CommWorld); err != nil {
		return false, err
	}
	sums := abi.Float64sOf(out)
	c.KineticE, c.PotentialE = sums[0], sums[1]

	c.Iter++
	return c.Iter >= c.Steps, nil
}

// noise returns a deterministic pseudo-random value in [0, 1) (see the
// wavempi twin).
func noise(seed, iter, rank int64) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(iter)*0xbf58476d1ce4e5b9 ^ uint64(rank)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return float64(x%1000000) / 1000000
}

func wrap(x, side float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0 // numerically destroyed atoms re-enter at the origin
	}
	x = math.Mod(x, side)
	if x < 0 {
		x += side
	}
	return x
}

// MarshalBinary encodes exactly the exported fields (the state gob would
// carry) in binstate's fixed layout, each atom as its six float64s; core
// checkpoints CoMD through it.
func (c *CoMD) MarshalBinary() ([]byte, error) {
	b := binstate.NewWriter(8 * (11 + 6*len(c.Atoms)))
	b.Int(c.ParticlesPerRank)
	b.Int(c.Steps)
	b.Float64(c.BoxSide)
	b.Float64(c.Cutoff)
	b.Float64(c.Dt)
	b.Float64(c.ComputeNsPerPair)
	b.Int64(c.Seed)
	b.Int(c.Iter)
	b.Int(len(c.Atoms))
	for _, a := range c.Atoms {
		b.Float64(a.X)
		b.Float64(a.Y)
		b.Float64(a.Z)
		b.Float64(a.Vx)
		b.Float64(a.Vy)
		b.Float64(a.Vz)
	}
	b.Float64(c.KineticE)
	b.Float64(c.PotentialE)
	return b.Bytes(), nil
}

// UnmarshalBinary restores MarshalBinary's output.
func (c *CoMD) UnmarshalBinary(raw []byte) error {
	b := binstate.NewReader(raw)
	c.ParticlesPerRank = b.Int()
	c.Steps = b.Int()
	c.BoxSide = b.Float64()
	c.Cutoff = b.Float64()
	c.Dt = b.Float64()
	c.ComputeNsPerPair = b.Float64()
	c.Seed = b.Int64()
	c.Iter = b.Int()
	c.Atoms = nil
	if n := b.Len(6 * 8); n > 0 {
		c.Atoms = make([]Particle, n)
		for i := range c.Atoms {
			a := &c.Atoms[i]
			a.X, a.Y, a.Z = b.Float64(), b.Float64(), b.Float64()
			a.Vx, a.Vy, a.Vz = b.Float64(), b.Float64(), b.Float64()
		}
	}
	c.KineticE = b.Float64()
	c.PotentialE = b.Float64()
	if err := b.Done(); err != nil {
		return fmt.Errorf("comd: %w", err)
	}
	return nil
}

func init() {
	core.RegisterProgram("app.comd", func() core.Program { return New() })
}

// ScaleSteps shrinks the run for quick harness configurations.
func (c *CoMD) ScaleSteps(f float64) {
	c.Steps = int(float64(c.Steps) * f)
	if c.Steps < 3 {
		c.Steps = 3
	}
	c.ParticlesPerRank = int(float64(c.ParticlesPerRank) * f * 2)
	if c.ParticlesPerRank < 32 {
		c.ParticlesPerRank = 32
	}
}

// SetSeed plants the run's OS-noise seed (harness hook).
func (c *CoMD) SetSeed(s int64) { c.Seed = s }
