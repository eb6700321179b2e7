// Checkpoint/resume: the durability half of surviving step 1493. The
// coordinator journals its committed per-step state to an atomic snapshot
// file; a restarted coordinator resumes from the snapshot and re-proposes
// the failed step under the same deterministic transaction names, so the
// sites' dedupe tables replay already-decided transactions and no action
// is ever applied twice (paper §2.1's at-most-once contract is what makes
// resume safe against live rigs).
package coord

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"neesgrid/internal/structural"
)

// checkpointVersion guards the on-disk layout.
const checkpointVersion = 1

// Checkpoint is the coordinator's durable state after a committed step:
// everything a fresh process needs to continue the run as if it had never
// died. See DESIGN.md §5e for the file layout.
type Checkpoint struct {
	// Version is the checkpoint layout version.
	Version int `json:"version"`
	// RunID is the transaction-name prefix; resume refuses a mismatched
	// run so a stale file cannot splice two experiments together.
	RunID string `json:"run_id"`
	// Step is the last committed step index.
	Step int `json:"step"`
	// T is the simulation time at Step.
	T float64 `json:"t"`
	// Steps is the run's total step count (sanity-checked on resume).
	Steps int `json:"steps"`
	// Dt is the integration step (sanity-checked on resume).
	Dt float64 `json:"dt"`
	// Integrator names the scheme that produced State; resume refuses a
	// different scheme.
	Integrator string `json:"integrator"`
	// IntegratorState is the scheme's opaque snapshot (structural.Resumable).
	IntegratorState json.RawMessage `json:"integrator_state"`
	// Tail is the last few committed states — enough history for the
	// resumed run's report and for stitching response plots across the
	// crash. Tail[len-1] is the state at Step.
	Tail []structural.State `json:"tail"`
	// TraceID is the trace ID of the last committed step's root span, so
	// the resumed run's spans can point back at the timeline that died.
	TraceID string `json:"trace_id,omitempty"`
}

// CheckpointConfig enables per-step checkpointing on a Coordinator.
type CheckpointConfig struct {
	// Path is the snapshot file. Writes are atomic (temp file + rename in
	// the same directory), so a crash mid-write leaves the previous
	// checkpoint intact.
	Path string
	// Every writes a checkpoint after every Every committed steps
	// (default 1; step 0 and the final step are always written).
	Every int
	// Tail is how many trailing states to embed (default 8).
	Tail int
}

func (c *CheckpointConfig) every() int {
	if c.Every <= 0 {
		return 1
	}
	return c.Every
}

func (c *CheckpointConfig) tail() int {
	if c.Tail <= 0 {
		return 8
	}
	return c.Tail
}

// SaveCheckpoint writes cp to path atomically: the bytes land in a
// temporary file in the same directory, are synced, and replace path with
// a rename. Readers never observe a torn checkpoint.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	if path == "" {
		return fmt.Errorf("coord: checkpoint path empty")
	}
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("coord: encode checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("coord: checkpoint temp file: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("coord: write checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("coord: read checkpoint: %w", err)
	}
	cp, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("coord: checkpoint %s: %w", path, err)
	}
	return cp, nil
}

// decodeCheckpoint parses checkpoint bytes and rejects any that do not
// describe a committed step a run can resume from.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("unsupported version %d", cp.Version)
	}
	if cp.Step < 0 || len(cp.IntegratorState) == 0 || len(cp.Tail) == 0 {
		return nil, fmt.Errorf("incomplete")
	}
	if last := cp.Tail[len(cp.Tail)-1]; last.Step != cp.Step {
		return nil, fmt.Errorf("tail ends at step %d, want %d", last.Step, cp.Step)
	}
	return &cp, nil
}

// validateResume cross-checks a checkpoint against the run configuration.
func (c *Coordinator) validateResume(cp *Checkpoint) error {
	if cp.RunID != c.cfg.RunID {
		return fmt.Errorf("coord: checkpoint is for run %q, this run is %q", cp.RunID, c.cfg.RunID)
	}
	if cp.Dt != c.cfg.Dt {
		return fmt.Errorf("coord: checkpoint dt %g != configured %g", cp.Dt, c.cfg.Dt)
	}
	if cp.Integrator != c.cfg.Integrator.Name() {
		return fmt.Errorf("coord: checkpoint integrator %q != configured %q",
			cp.Integrator, c.cfg.Integrator.Name())
	}
	if cp.Step >= c.cfg.Steps {
		return fmt.Errorf("coord: checkpoint step %d is at or past the final step %d",
			cp.Step, c.cfg.Steps)
	}
	return nil
}
