package control

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// errXPCStopped is returned to a host waiting on a command when the
// target's real-time loop is stopped before the command is applied.
var errXPCStopped = errors.New("control: xpc target stopped")

// XPCTarget emulates the CU configuration of Fig. 9: a target machine
// running a real-time OS that owns the servo loop, driven asynchronously by
// a host application. Commands are posted to a mailbox; the target applies
// them on its own cycle and notifies the host that waits on the command —
// the decoupled command/status pattern the Matlab xPC feature provided,
// with the target's cycle as the only pacing.
type XPCTarget struct {
	rig *Rig

	mu sync.Mutex
	// pending is the command waiting in the mailbox (nil when empty),
	// posted the most recently posted command (pending, in flight or
	// applied), and settled the last command a cycle applied.
	pending, posted, settled *xpcCommand
	applied                  int
	stopCh                   chan struct{}
	running                  bool
}

// xpcCommand is one mailbox entry. Cycle records its outcome — the
// measurement Status reports once it is applied — and then closes done,
// which wakes every host waiting on it.
type xpcCommand struct {
	target     float64
	done       chan struct{}
	pos, force float64
	err        error
}

// NewXPCTarget wraps a rig.
func NewXPCTarget(rig *Rig) *XPCTarget {
	initial := &xpcCommand{done: make(chan struct{})}
	close(initial.done)
	return &XPCTarget{rig: rig, posted: initial, settled: initial}
}

// Start launches the real-time loop with the given cycle period.
func (x *XPCTarget) Start(period time.Duration) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.running {
		return
	}
	x.running = true
	x.stopCh = make(chan struct{})
	go x.loop(period, x.stopCh)
}

// Stop halts the loop. Hosts waiting on an unapplied command get
// errXPCStopped.
func (x *XPCTarget) Stop() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.running {
		x.running = false
		close(x.stopCh)
	}
}

func (x *XPCTarget) loop(period time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			x.Cycle()
		case <-stop:
			return
		}
	}
}

// Cycle runs one real-time cycle: if a command is pending, apply it through
// the rig and wake its waiters. It is the only place a command is applied;
// exposed so tests can drive the target deterministically without the
// ticker.
func (x *XPCTarget) Cycle() {
	x.mu.Lock()
	cmd := x.pending
	x.pending = nil
	x.mu.Unlock()
	if cmd == nil {
		return
	}

	forces, err := x.rig.Apply([]float64{cmd.target})

	x.mu.Lock()
	x.applied++
	// A failed move reports its error with the last good measurement.
	cmd.pos, cmd.force, cmd.err = x.settled.pos, x.settled.force, err
	if err == nil {
		cmd.pos, cmd.force = cmd.target, forces[0]
	}
	x.settled = cmd
	x.mu.Unlock()
	close(cmd.done)
}

// SetTarget posts a new position command; the loop applies it on its next
// cycle. A command still waiting in the mailbox is replaced, and its
// waiters receive the outcome of the replacement.
func (x *XPCTarget) SetTarget(pos float64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.pending == nil {
		x.pending = &xpcCommand{done: make(chan struct{})}
		x.posted = x.pending
	}
	x.pending.target = pos
}

// Status returns the latest settled measurement. Until the most recently
// posted command is applied it reports settled false and no error.
func (x *XPCTarget) Status() (settled bool, pos, force float64, err error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	s := x.settled
	if x.posted != s {
		return false, s.pos, s.force, nil
	}
	return true, s.pos, s.force, s.err
}

// WaitSettled waits until the most recently posted command is applied and
// returns the outcome Status reported when it was. It fails with ctx's
// error, with errXPCStopped once the loop is stopped, or after timeout.
func (x *XPCTarget) WaitSettled(ctx context.Context, timeout time.Duration) (pos, force float64, err error) {
	x.mu.Lock()
	cmd, stop := x.posted, x.stopCh
	x.mu.Unlock()
	// An applied command's outcome wins over a stop that is also ready.
	select {
	case <-cmd.done:
		return cmd.pos, cmd.force, cmd.err
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-cmd.done:
		return cmd.pos, cmd.force, cmd.err
	case <-ctx.Done():
		return 0, 0, ctx.Err()
	case <-stop:
		return 0, 0, errXPCStopped
	case <-timer.C:
		return 0, 0, fmt.Errorf("control: xpc target did not settle within %v", timeout)
	}
}

// Applied reports how many commands the target executed.
func (x *XPCTarget) Applied() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.applied
}
