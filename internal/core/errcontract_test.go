package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// The error contracts of Run: a rejection and a failed execution must keep
// satisfying errors.Is(…, ErrRejected/ErrFailed), with the decided record
// returned alongside, no matter how the record reached the client — first
// decision, a retry that recovered, or a dedupe replay of a terminal record.

func TestRejectionErrorSurvivesRetryLoop(t *testing.T) {
	pol := &SitePolicy{PointLimits: map[string]Limits{"drift": {MaxDisplacement: 0.01}}}
	f := newFixture(t, springPlugin(100), pol)
	ft := &flakyTransport{failures: 1}
	cl := f.client(DefaultRetry, &http.Client{Transport: ft})

	rec, err := cl.Run(context.Background(), proposal("too-big", 0.5))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected through the retry loop", err)
	}
	if rec == nil || rec.State != StateRejected {
		t.Fatalf("record = %+v", rec)
	}
	if st := cl.Stats(); st.Recovered == 0 {
		t.Fatalf("stats = %+v: the transport fault should have been recovered before the rejection", st)
	}
}

func TestExecutionErrorSurvivesRetryLoop(t *testing.T) {
	plugin := PluginFunc(func(context.Context, []Action) ([]Result, error) {
		return nil, fmt.Errorf("hydraulics down")
	})
	f := newFixture(t, plugin, nil)
	ft := &flakyTransport{failures: 1}
	cl := f.client(DefaultRetry, &http.Client{Transport: ft})

	rec, err := cl.Run(context.Background(), proposal("doomed", 0.01))
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed through the retry loop", err)
	}
	if rec == nil || rec.State != StateFailed {
		t.Fatalf("record = %+v", rec)
	}
}

func TestErrorContractsThroughDedupeReplay(t *testing.T) {
	pol := &SitePolicy{PointLimits: map[string]Limits{"drift": {MaxDisplacement: 0.01}}}
	f := newFixture(t, springPlugin(100), pol)
	cl := f.client(NoRetry, nil)
	ctx := context.Background()

	if _, err := cl.Run(ctx, proposal("too-big", 0.5)); !errors.Is(err, ErrRejected) {
		t.Fatalf("first decision: %v", err)
	}
	// The same name again: the server answers from the transaction table,
	// and the replayed terminal record must map to the same error identity.
	if _, err := cl.Run(ctx, proposal("too-big", 0.5)); !errors.Is(err, ErrRejected) {
		t.Fatalf("dedupe replay: %v", err)
	}
	if f.server.Stats().DedupedReplay == 0 {
		t.Fatal("second decision did not come from the dedupe table")
	}

	// Same for a failed execution.
	var mu sync.Mutex
	executions := 0
	failing := PluginFunc(func(context.Context, []Action) ([]Result, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		return nil, fmt.Errorf("actuator fault")
	})
	ff := newFixture(t, failing, nil)
	fcl := ff.client(NoRetry, nil)
	if _, err := fcl.Run(ctx, proposal("doomed", 0.005)); !errors.Is(err, ErrFailed) {
		t.Fatalf("first failure: %v", err)
	}
	if _, err := fcl.Run(ctx, proposal("doomed", 0.005)); !errors.Is(err, ErrFailed) {
		t.Fatalf("replayed failure: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if executions != 1 {
		t.Fatalf("failed action executed %d times, want 1", executions)
	}
}

// gatePlugin blocks executions until released, so a test can observe a
// transaction in StateExecuting from a second client.
type gatePlugin struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
	mu      sync.Mutex
	execs   int
}

func newGatePlugin() *gatePlugin {
	return &gatePlugin{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatePlugin) Validate(context.Context, []Action) error { return nil }

func (g *gatePlugin) Execute(_ context.Context, actions []Action) ([]Result, error) {
	g.mu.Lock()
	g.execs++
	g.mu.Unlock()
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return []Result{{ControlPoint: "drift", Displacements: actions[0].Displacements, Forces: []float64{9}}}, nil
}

func TestClientRunFallsThroughOnStateExecuting(t *testing.T) {
	g := newGatePlugin()
	f := newFixture(t, g, nil)
	ctx := context.Background()

	first := f.client(NoRetry, nil)
	firstDone := make(chan error, 1)
	go func() {
		_, err := first.Run(ctx, proposal("x", 0.01))
		firstDone <- err
	}()
	<-g.entered // the transaction is now StateExecuting

	// A second Run on the same name: the propose dedupes into the executing
	// record, the switch falls through, and Execute waits for the outcome.
	second := f.client(NoRetry, nil)
	secondDone := make(chan error, 1)
	var rec *Record
	go func() {
		var err error
		rec, err = second.Run(ctx, proposal("x", 0.01))
		secondDone <- err
	}()

	close(g.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := <-secondDone; err != nil {
		t.Fatalf("second run: %v", err)
	}
	if rec.State != StateExecuted || rec.Results[0].Forces[0] != 9 {
		t.Fatalf("second run record = %+v", rec)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.execs != 1 {
		t.Fatalf("action executed %d times, want 1", g.execs)
	}
}
