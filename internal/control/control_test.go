package control

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"neesgrid/internal/structural"
)

func quietActuator() ActuatorConfig {
	cfg := DefaultActuator()
	cfg.PositionNoiseStd = 0
	cfg.ForceNoiseStd = 0
	return cfg
}

func TestActuatorMoveSettles(t *testing.T) {
	a := NewActuator(quietActuator(), structural.NewLinearElastic(1000))
	pos, err := a.Move(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pos-0.01) > 1e-4 {
		t.Fatalf("settled at %g, want ~0.01", pos)
	}
	if a.SimTime() <= 0 {
		t.Fatal("simulated time did not advance")
	}
	f := a.Force()
	if math.Abs(f-1000*pos) > 1 {
		t.Fatalf("force = %g, want ~%g", f, 1000*pos)
	}
}

func TestActuatorStrokeLimit(t *testing.T) {
	a := NewActuator(quietActuator(), structural.NewLinearElastic(1000))
	if _, err := a.Move(1.0); err == nil {
		t.Fatal("command beyond stroke should fail")
	}
}

func TestActuatorRateLimitSlowsMove(t *testing.T) {
	cfg := quietActuator()
	cfg.RateLimit = 0.01 // m/s
	a := NewActuator(cfg, structural.NewLinearElastic(1000))
	_, err := a.Move(0.05)
	if err != nil {
		t.Fatal(err)
	}
	// 0.05 m at 0.01 m/s needs at least 5 simulated seconds.
	if a.SimTime() < 4.5 {
		t.Fatalf("rate-limited move took %g simulated s, want >= 4.5", a.SimTime())
	}
}

func TestActuatorSettleTimeout(t *testing.T) {
	cfg := quietActuator()
	cfg.RateLimit = 1e-6 // effectively frozen
	cfg.SettleTimeout = 0.1
	a := NewActuator(cfg, structural.NewLinearElastic(1000))
	if _, err := a.Move(0.05); err == nil {
		t.Fatal("frozen actuator should time out")
	}
}

func TestActuatorNoiseDeterministic(t *testing.T) {
	cfg := DefaultActuator()
	make1 := func() []float64 {
		a := NewActuator(cfg, structural.NewLinearElastic(1000))
		_, _ = a.Move(0.01)
		return []float64{a.Position(), a.Force()}
	}
	r1, r2 := make1(), make1()
	if r1[0] != r2[0] || r1[1] != r2[1] {
		t.Fatal("sensor noise not deterministic across equal seeds")
	}
	if r1[0] == 0.01 {
		t.Fatal("position reading suspiciously noise-free")
	}
}

func TestInterlockTripsOnForce(t *testing.T) {
	il := &Interlock{MaxForce: 100}
	if err := il.Check(0, 50); err != nil {
		t.Fatal(err)
	}
	if err := il.Check(0, 150); err == nil {
		t.Fatal("over-force should trip")
	}
	// Latched: even a safe measurement now fails.
	if err := il.Check(0, 0); err == nil {
		t.Fatal("tripped interlock should stay tripped")
	}
	il.Clear()
	if err := il.Check(0, 0); err != nil {
		t.Fatal("cleared interlock should pass")
	}
}

func TestInterlockTripKeepsFirstReason(t *testing.T) {
	il := &Interlock{}
	il.Trip("first")
	il.Trip("second")
	if il.Tripped() != "first" {
		t.Fatalf("reason = %q", il.Tripped())
	}
}

func TestRigApplyMeasuresSpecimenForce(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	f, err := rig.Apply([]float64{0.02})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f[0]-20) > 0.5 {
		t.Fatalf("force = %g, want ~20", f[0])
	}
	if rig.Applied() != 1 {
		t.Fatal("apply counter")
	}
	if rig.NDOF() != 1 || rig.Name() != "uiuc" {
		t.Fatal("metadata")
	}
}

func TestRigBilinearSpecimenYields(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 10, 0.1) // yields at 0.01
	f, err := rig.Apply([]float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	elastic := 1000 * 0.05
	if f[0] >= elastic {
		t.Fatalf("force %g shows no yielding (elastic would be %g)", f[0], elastic)
	}
}

func TestRigInterlockBlocksAfterTrip(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	rig.Interlock().Trip("operator stop")
	if _, err := rig.Apply([]float64{0.01}); err == nil {
		t.Fatal("tripped rig should refuse commands")
	}
	rig.Interlock().Clear()
	if _, err := rig.Apply([]float64{0.01}); err != nil {
		t.Fatal(err)
	}
}

func TestRigDimension(t *testing.T) {
	rig := NewColumnRig("u", quietActuator(), 1000, 0, 0)
	if _, err := rig.Apply([]float64{1, 2}); err == nil {
		t.Fatal("multi-DOF apply should fail")
	}
}

func TestRigSettleDelay(t *testing.T) {
	rig := NewColumnRig("u", quietActuator(), 1000, 0, 0)
	rig.SettleDelay = 30 * time.Millisecond
	start := time.Now()
	if _, err := rig.Apply([]float64{0.01}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("settle delay not applied")
	}
}

func TestShoreWesternRoundTrip(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := NewShoreWesternServer(rig)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewShoreWesternClient(addr)
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	pos, err := cl.Move(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pos-0.02) > 1e-3 {
		t.Fatalf("moved to %g", pos)
	}
	rp, rf, err := cl.Read()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rp-0.02) > 1e-3 || math.Abs(rf-20) > 1 {
		t.Fatalf("read = %g, %g", rp, rf)
	}
}

func TestShoreWesternStopAndClear(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := NewShoreWesternServer(rig)
	addr, _ := srv.Start("127.0.0.1:0")
	defer srv.Close()
	cl := NewShoreWesternClient(addr)
	defer cl.Close()

	if err := cl.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Move(0.01); err == nil {
		t.Fatal("move after STOP should fail")
	}
	if err := cl.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Move(0.01); err != nil {
		t.Fatal(err)
	}
	if err := cl.Reset(); err != nil {
		t.Fatal(err)
	}
}

func TestShoreWesternBadCommands(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := NewShoreWesternServer(rig)
	if got := srv.handle("MOVE"); got[:3] != "ERR" {
		t.Fatalf("MOVE without arg: %q", got)
	}
	if got := srv.handle("MOVE abc"); got[:3] != "ERR" {
		t.Fatalf("MOVE with bad arg: %q", got)
	}
	if got := srv.handle("FROB 1"); got[:3] != "ERR" {
		t.Fatalf("unknown command: %q", got)
	}
	if got := srv.handle("MOVE 99"); got[:3] != "ERR" {
		t.Fatalf("move beyond stroke: %q", got)
	}
}

func TestShoreWesternClientReconnects(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := NewShoreWesternServer(rig)
	addr, _ := srv.Start("127.0.0.1:0")
	defer srv.Close()
	cl := NewShoreWesternClient(addr)
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	_ = cl.Close() // sever
	if err := cl.Ping(); err != nil {
		t.Fatalf("client did not redial: %v", err)
	}
}

func TestXPCTargetCommandPollCycle(t *testing.T) {
	rig := NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	x := NewXPCTarget(rig)
	x.SetTarget(0.03)
	if settled, _, _, _ := x.Status(); settled {
		t.Fatal("target should be pending before a cycle")
	}
	x.Cycle()
	pos, force, err := x.WaitSettled(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pos-0.03) > 1e-3 || math.Abs(force-30) > 1 {
		t.Fatalf("settled = %g, %g", pos, force)
	}
	if x.Applied() != 1 {
		t.Fatal("applied counter")
	}
}

func TestXPCTargetBackgroundLoop(t *testing.T) {
	rig := NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	x := NewXPCTarget(rig)
	x.Start(time.Millisecond)
	defer x.Stop()
	x.SetTarget(0.01)
	pos, _, err := x.WaitSettled(context.Background(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pos-0.01) > 1e-3 {
		t.Fatalf("pos = %g", pos)
	}
}

func TestXPCTargetSurfacesError(t *testing.T) {
	rig := NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	x := NewXPCTarget(rig)
	x.SetTarget(9.9) // beyond stroke
	x.Cycle()
	_, _, err := x.WaitSettled(context.Background(), time.Second)
	if err == nil {
		t.Fatal("stroke error should surface via status")
	}
}

func TestXPCTargetWaitHonoursContext(t *testing.T) {
	x := NewXPCTarget(NewColumnRig("cu", quietActuator(), 1000, 0, 0))
	x.SetTarget(0.01) // never applied: no loop, no Cycle
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := x.WaitSettled(ctx, 10*time.Second)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context's deadline error", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("wait outlived its context by %v", d)
	}
}

func TestXPCTargetStopReleasesWaiter(t *testing.T) {
	x := NewXPCTarget(NewColumnRig("cu", quietActuator(), 1000, 0, 0))
	x.Start(time.Hour) // running, but no cycle will come
	x.SetTarget(0.01)
	errc := make(chan error, 1)
	go func() {
		_, _, err := x.WaitSettled(context.Background(), 10*time.Second)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	x.Stop()
	select {
	case err := <-errc:
		if !errors.Is(err, errXPCStopped) {
			t.Fatalf("err = %v, want %v", err, errXPCStopped)
		}
	case <-time.After(time.Second):
		t.Fatal("Stop did not release the waiter")
	}
	if x.Applied() != 0 {
		t.Fatal("stopped target applied a command")
	}
	// A wait that starts after Stop fails at once instead of timing out.
	if _, _, err := x.WaitSettled(context.Background(), 10*time.Second); !errors.Is(err, errXPCStopped) {
		t.Fatalf("wait after Stop: err = %v", err)
	}
}

func TestXPCTargetReplacedCommandReportsAppliedOutcome(t *testing.T) {
	x := NewXPCTarget(NewColumnRig("cu", quietActuator(), 1000, 0, 0))
	x.SetTarget(0.01)
	type outcome struct {
		pos, force float64
		err        error
	}
	first := make(chan outcome, 1)
	go func() {
		p, f, err := x.WaitSettled(context.Background(), 5*time.Second)
		first <- outcome{p, f, err}
	}()
	x.SetTarget(0.02) // replaces the unapplied 0.01
	x.Cycle()
	p, f, err := x.WaitSettled(context.Background(), 5*time.Second)
	got := <-first
	for _, o := range []outcome{got, {p, f, err}} {
		if o.err != nil || math.Abs(o.pos-0.02) > 1e-3 || math.Abs(o.force-20) > 1 {
			t.Fatalf("outcome = %+v, want the replacement's (0.02, ~20)", o)
		}
	}
	if x.Applied() != 1 {
		t.Fatalf("applied %d commands, want 1 (the replacement)", x.Applied())
	}
}

// TestXPCTargetInterleavedCommandsRaceClean drives SetTarget, Cycle, Status
// and WaitSettled from concurrent goroutines; run under -race. A lone host
// must always get its own command's outcome; hosts that overwrite each
// other's mailbox entry must get the outcome of a command that was posted.
func TestXPCTargetInterleavedCommandsRaceClean(t *testing.T) {
	x := NewXPCTarget(NewColumnRig("cu", quietActuator(), 1000, 0, 0))
	stop := make(chan struct{})
	var cycler sync.WaitGroup
	cycler.Add(1)
	go func() {
		defer cycler.Done()
		for {
			select {
			case <-stop:
				return
			default:
				x.Cycle()
				x.Status()
				runtime.Gosched()
			}
		}
	}()
	defer func() { close(stop); cycler.Wait() }()

	check := func(pos, force float64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(force-1000*pos) > 1 {
			t.Fatalf("outcome (%g, %g) is not one applied command's", pos, force)
		}
	}
	for i := 1; i <= 100; i++ {
		want := float64(i) * 1e-4
		x.SetTarget(want)
		pos, force, err := x.WaitSettled(context.Background(), 5*time.Second)
		check(pos, force, err)
		if math.Abs(pos-want) > 1e-3 {
			t.Fatalf("command %d: pos = %g, want %g", i, pos, want)
		}
	}

	var hosts sync.WaitGroup
	for h := 0; h < 3; h++ {
		hosts.Add(1)
		go func() {
			defer hosts.Done()
			for i := 0; i < 50; i++ {
				x.SetTarget(float64(h*50+i) * 1e-4)
				pos, force, err := x.WaitSettled(context.Background(), 5*time.Second)
				if err != nil || math.Abs(force-1000*pos) > 1 || pos < -1e-3 || pos > 0.015+1e-3 {
					t.Errorf("host %d: outcome (%g, %g, %v)", h, pos, force, err)
					return
				}
			}
		}()
	}
	hosts.Wait()
}

func TestStepperQuantizesPosition(t *testing.T) {
	s := NewStepperBeam("mini", 1080, 1e-4, 1000)
	f, err := s.Apply([]float64{0.00512}) // 51.2 steps -> 51 steps
	if err != nil {
		t.Fatal(err)
	}
	want := 51 * 1e-4
	if math.Abs(s.Position()-want) > 1e-12 {
		t.Fatalf("position = %g, want %g", s.Position(), want)
	}
	if math.Abs(f[0]-1080*want) > 1e-9 {
		t.Fatalf("force = %g", f[0])
	}
	if s.Moves() != 1 {
		t.Fatal("move counter")
	}
}

func TestStepperTravelLimit(t *testing.T) {
	s := NewStepperBeam("mini", 1080, 1e-4, 100)
	if _, err := s.Apply([]float64{0.02}); err == nil { // 200 steps > 100
		t.Fatal("travel limit should trip")
	}
}

func TestStepperStrainAndReset(t *testing.T) {
	s := NewStepperBeam("mini", 1080, 1e-4, 1000)
	_, _ = s.Apply([]float64{0.01})
	if s.Strain() == 0 {
		t.Fatal("strain gauge reads zero at deflection")
	}
	_ = s.Reset()
	if s.Position() != 0 || s.Strain() != 0 {
		t.Fatal("reset did not zero rig")
	}
}

func TestFirstOrderKineticApproach(t *testing.T) {
	// Long dwell: position effectively reaches the target.
	f := NewFirstOrderKinetic("sim", 1080, 0.05, 1.0)
	out, err := f.Apply([]float64{0.01})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-10.8) > 0.01 {
		t.Fatalf("force = %g, want ~10.8", out[0])
	}
	// Short dwell: visible first-order undershoot.
	u := NewFirstOrderKinetic("sim", 1080, 0.05, 0.05) // one time constant
	out, _ = u.Apply([]float64{0.01})
	want := 1080 * 0.01 * (1 - math.Exp(-1))
	if math.Abs(out[0]-want) > 0.01 {
		t.Fatalf("undershoot force = %g, want %g", out[0], want)
	}
}

func TestFirstOrderKineticReset(t *testing.T) {
	f := NewFirstOrderKinetic("sim", 1080, 0.05, 1.0)
	_, _ = f.Apply([]float64{0.01})
	_ = f.Reset()
	if f.Position() != 0 {
		t.Fatal("reset failed")
	}
}

func TestInvalidConstructorsPanic(t *testing.T) {
	cases := []func(){
		func() { NewStepperBeam("x", 1, 0, 10) },
		func() { NewStepperBeam("x", 1, 1e-4, 0) },
		func() { NewFirstOrderKinetic("x", 0, 1, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}
