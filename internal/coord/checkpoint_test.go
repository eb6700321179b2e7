package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neesgrid/internal/core"
	"neesgrid/internal/structural"
)

// bilinearPair returns matched hysteretic elements for a reference run and a
// checkpointed run. Hysteresis is the point: if resume re-executed a step at
// a site instead of replaying it from the dedupe table, the element's state
// would double-advance and the trajectory would diverge.
func bilinearElement() structural.Element { return structural.NewBilinear(2000, 150, 0.05) }

func checkpointConfig(steps int) Config {
	cfg := sdofConfig(100, 2000, steps)
	cfg.K = structural.Diagonal([]float64{2000})
	return cfg
}

func mustRun(t *testing.T, cfg Config, sites []Site) (*structural.History, *Report) {
	t.Helper()
	c, err := New(cfg, sites...)
	if err != nil {
		t.Fatal(err)
	}
	hist, rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return hist, rep
}

func TestCoordinatorCheckpointResume(t *testing.T) {
	const steps, killAt = 60, 36

	// Reference: an uninterrupted distributed run on its own harness.
	refH := newHarness(t, []structural.Element{bilinearElement()}, nil)
	refHist, _ := mustRun(t, checkpointConfig(steps), refH.coordSites(core.DefaultRetry))
	if refHist.Len() != steps+1 {
		t.Fatalf("reference recorded %d states, want %d", refHist.Len(), steps+1)
	}

	// Crash run: checkpoint every 10 steps, chaos-kill before step 36. The
	// last checkpoint is at step 30, so steps 31–35 were executed at the
	// site but are "forgotten" by the coordinator — resume must replay them
	// through the dedupe table, not re-execute them.
	h := newHarness(t, []structural.Element{bilinearElement()}, nil)
	path := filepath.Join(t.TempDir(), "coord.ckpt")
	cfg := checkpointConfig(steps)
	cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 10}
	killErr := errors.New("chaos: scheduled coordinator kill")
	cfg.Interrupt = func(s int) error {
		if s == killAt {
			return killErr
		}
		return nil
	}
	sites := h.coordSites(core.DefaultRetry)
	c1, err := New(cfg, sites...)
	if err != nil {
		t.Fatal(err)
	}
	hist1, rep1, err := c1.Run(context.Background())
	if !errors.Is(err, killErr) {
		t.Fatalf("run error = %v, want the interrupt error", err)
	}
	if rep1.FailedStep != killAt || rep1.StepsCompleted != killAt-1 {
		t.Fatalf("failed step %d / completed %d, want %d / %d",
			rep1.FailedStep, rep1.StepsCompleted, killAt, killAt-1)
	}
	if rep1.Checkpoints != 4 { // steps 0, 10, 20, 30
		t.Fatalf("wrote %d checkpoints, want 4", rep1.Checkpoints)
	}
	for _, st := range hist1.States {
		if !sameState(refHist.States[st.Step], st) {
			t.Fatalf("pre-crash step %d diverged from reference", st.Step)
		}
	}

	// Resume: a fresh coordinator process against the same (still running)
	// sites, loading the snapshot the dead one left behind.
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Step != 30 {
		t.Fatalf("checkpoint at step %d, want 30", cp.Step)
	}
	cfg2 := checkpointConfig(steps)
	cfg2.Checkpoint = &CheckpointConfig{Path: path, Every: 10}
	cfg2.Resume = cp
	hist2, rep2 := mustRun(t, cfg2, sites)
	if rep2.ResumedFrom != 30 || !rep2.Completed || rep2.StepsCompleted != steps {
		t.Fatalf("resumed report = %+v", rep2)
	}
	if rep2.Checkpoints != 3 { // steps 40, 50, 60
		t.Fatalf("resumed run wrote %d checkpoints, want 3", rep2.Checkpoints)
	}

	// Every state the resumed run produced — the replayed tail and the live
	// steps, including the re-proposed 31–35 — must be bit-identical to the
	// uninterrupted reference.
	if hist2.Len() == 0 {
		t.Fatal("resumed history empty")
	}
	if last := hist2.States[hist2.Len()-1]; last.Step != steps {
		t.Fatalf("resumed run ended at step %d, want %d", last.Step, steps)
	}
	for _, st := range hist2.States {
		if !sameState(refHist.States[st.Step], st) {
			t.Fatalf("post-resume step %d diverged from reference:\nref %+v\ngot %+v",
				st.Step, refHist.States[st.Step], st)
		}
	}

	// The final checkpoint (written at the last step regardless of cadence)
	// records the completed run.
	final, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Step != steps {
		t.Fatalf("final checkpoint at step %d, want %d", final.Step, steps)
	}
}

// sameState compares two states bit-for-bit.
func sameState(a, b structural.State) bool {
	if a.Step != b.Step || a.T != b.T {
		return false
	}
	for i := range a.D {
		if a.D[i] != b.D[i] || a.V[i] != b.V[i] || a.A[i] != b.A[i] || a.F[i] != b.F[i] {
			return false
		}
	}
	return true
}

// stiffIntegrator is an Integrator that is deliberately not Resumable.
type stiffIntegrator struct{ structural.Integrator }

func (stiffIntegrator) Name() string { return "not-resumable" }

func TestCheckpointConfigValidation(t *testing.T) {
	h := newHarness(t, []structural.Element{bilinearElement()}, nil)
	sites := h.coordSites(core.DefaultRetry)

	cfg := checkpointConfig(10)
	cfg.Checkpoint = &CheckpointConfig{Path: "x"}
	cfg.Integrator = stiffIntegrator{structural.NewExplicitNewmark()}
	if _, err := New(cfg, sites...); err == nil || !strings.Contains(err.Error(), "checkpoint/resume") {
		t.Fatalf("non-resumable integrator accepted: %v", err)
	}

	good := &Checkpoint{
		Version: checkpointVersion, RunID: "test", Step: 5, Steps: 10, Dt: 0.01,
		Integrator:      "explicit-newmark",
		IntegratorState: []byte(`{}`),
		Tail:            []structural.State{{Step: 5}},
	}
	mk := func(mut func(cp *Checkpoint)) Config {
		cp := *good
		tail := make([]structural.State, len(good.Tail))
		copy(tail, good.Tail)
		cp.Tail = tail
		mut(&cp)
		cfg := checkpointConfig(10)
		cfg.Resume = &cp
		return cfg
	}
	cases := []struct {
		name string
		mut  func(cp *Checkpoint)
	}{
		{"wrong run id", func(cp *Checkpoint) { cp.RunID = "other" }},
		{"wrong dt", func(cp *Checkpoint) { cp.Dt = 0.02 }},
		{"wrong integrator", func(cp *Checkpoint) { cp.Integrator = "alpha-os(-0.05)" }},
		{"past final step", func(cp *Checkpoint) { cp.Step = 10 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(mk(tc.mut), sites...); err == nil {
				t.Fatal("invalid resume checkpoint accepted")
			}
		})
	}
}

func TestLoadCheckpointRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadCheckpoint(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := LoadCheckpoint(write("garbage", "{")); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
	if _, err := LoadCheckpoint(write("version", `{"version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := LoadCheckpoint(write("empty", `{"version":1,"step":3}`)); err == nil {
		t.Fatal("checkpoint without state accepted")
	}
	if _, err := LoadCheckpoint(write("tail", `{"version":1,"step":3,`+
		`"integrator_state":{"x":1},"tail":[{"Step":2}]}`)); err == nil {
		t.Fatal("tail/step mismatch accepted")
	}
}

func TestSaveCheckpointAtomicReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	base := &Checkpoint{
		Version: checkpointVersion, RunID: "r", Dt: 0.01, Steps: 9,
		Integrator:      "explicit-newmark",
		IntegratorState: []byte(`{"a":1}`),
	}
	for step := 1; step <= 3; step++ {
		cp := *base
		cp.Step = step
		cp.Tail = []structural.State{{Step: step}}
		if err := SaveCheckpoint(path, &cp); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Step != step {
			t.Fatalf("loaded step %d, want %d", got.Step, step)
		}
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want only the checkpoint", len(entries))
	}
}

// savedCheckpoint returns the bytes SaveCheckpoint wrote at the end of a
// short checkpointed run over a hysteretic site.
func savedCheckpoint(t *testing.T) []byte {
	t.Helper()
	h := newHarness(t, []structural.Element{bilinearElement()}, nil)
	cfg := checkpointConfig(12)
	cfg.Checkpoint = &CheckpointConfig{Path: filepath.Join(t.TempDir(), "coord.ckpt")}
	mustRun(t, cfg, h.coordSites(core.DefaultRetry))
	data, err := os.ReadFile(cfg.Checkpoint.Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(data); err != nil {
		t.Fatalf("saved checkpoint does not decode: %v", err)
	}
	return data
}

// A write cut short at any byte must never load as a checkpoint.
func TestLoadCheckpointRejectsEveryTruncation(t *testing.T) {
	data := savedCheckpoint(t)
	path := filepath.Join(t.TempDir(), "cut.ckpt")
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if cp, err := LoadCheckpoint(path); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte checkpoint loaded as step %d", n, len(data), cp.Step)
		}
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint decoder: it
// must never panic, every checkpoint it accepts must hold the invariants
// resume relies on, and an accepted checkpoint must survive being saved
// and loaded again unchanged.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		if cp.Version != checkpointVersion || cp.Step < 0 || len(cp.IntegratorState) == 0 ||
			len(cp.Tail) == 0 || cp.Tail[len(cp.Tail)-1].Step != cp.Step {
			t.Fatalf("accepted checkpoint breaks an invariant: %+v", cp)
		}
		saved, err := json.Marshal(cp)
		if err != nil {
			t.Fatalf("accepted checkpoint does not encode: %v", err)
		}
		again, err := decodeCheckpoint(saved)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if resaved, _ := json.Marshal(again); !bytes.Equal(saved, resaved) {
			t.Fatalf("checkpoint changed across a save/load cycle:\n%s\n%s", saved, resaved)
		}
	})
}
