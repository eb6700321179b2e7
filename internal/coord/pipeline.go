// Pipelined stepping: the §5 "ongoing work" protocol. Without it a step
// pays ~2.5 WAN round trips (a propose barrier, then an execute barrier).
// The pipelined path overlaps adjacent steps instead: while step N
// executes, the coordinator already proposes step N+1 at the displacement
// the integrator is predicted to ask for — both carried to each site in
// ONE batched signed envelope (core.ExecuteAndPropose). In steady state a
// step therefore costs a single round trip, and since the propose for the
// step was issued one step earlier, the wall-clock cost trends toward one
// one-way latency. Both modes run the same restore loop (coord.go);
// speculation is the only difference.
//
// Speculation is safe because of the same two properties that make
// retries and checkpoint/resume safe: transaction names are deterministic
// and the server dedupes by name, so a speculative proposal that turns out
// wrong is just cancelled (never executed), and a crash mid-speculation
// leaves records that the revision/mismatch guards in proposeRevised walk
// past deterministically on resume.
//
// Rollback rule: when the actual displacement of step N+1 differs from the
// prediction by more than Config.PipelineTolerance on any DOF, the
// speculative transactions are cancelled (concurrently, on a
// cancel-delivery context) and the step is re-proposed at the actual
// displacement — correctness never depends on the predictor.
package coord

import "math"

// defaultPipelineTolerance is the per-DOF speculation tolerance when the
// config leaves it zero: 1 mm, on the order of hydraulic actuator
// positioning accuracy, and comfortably above the ~|a|·dt² truncation
// error of the linear predictor at MOST's dt = 0.01 s (≈ 3e-4 m at 3 m/s²).
const defaultPipelineTolerance = 1e-3

// pipeState is the speculation carried from one restore call to the next.
type pipeState struct {
	// step is the step number the in-flight speculation targets (0 = none).
	step int
	// ok reports that every site accepted the speculative proposal.
	ok bool
	// predicted is the global displacement vector that was proposed.
	predicted []float64
	// names[i] is the transaction name site i holds for the speculation.
	names []string
	// outcomes holds the per-site speculative propose outcomes (the
	// rollback path cancels the accepted ones).
	outcomes []siteOutcome
	// lastD is the previous step's requested displacement — the d_{N-1}
	// of the linear predictor. Nil until the first step executes.
	lastD []float64
}

// predict extrapolates the displacement the integrator will request next:
// d̂_{N+1} = 2·d_N − d_{N-1}, degrading to constant extrapolation before
// two steps of history exist.
func (c *Coordinator) predict(d []float64) []float64 {
	p := make([]float64, len(d))
	if c.pipe.lastD == nil {
		copy(p, d)
		return p
	}
	for g := range d {
		p[g] = 2*d[g] - c.pipe.lastD[g]
	}
	return p
}

// predictionHolds reports whether the actual displacement d is within the
// speculation tolerance of what was proposed. A negative tolerance never
// holds — the knob that forces a rollback every step for determinism
// debugging.
func (c *Coordinator) predictionHolds(d []float64) bool {
	tol := c.cfg.PipelineTolerance
	if tol < 0 {
		return false
	}
	for g, v := range d {
		if math.Abs(c.pipe.predicted[g]-v) > tol {
			return false
		}
	}
	return true
}
