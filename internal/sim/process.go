//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Process is a simulated thread of control. Application code (host
// software in the simulated machines) is most naturally written as
// straight-line code that sleeps and waits; Process provides that on top
// of the event loop.
//
// Each process body runs as a runtime coroutine (iter.Pull): the engine
// resumes it by calling the coroutine's next function from an event, and
// the process parks by yielding back. Control moves directly between the
// engine and the one running process, never through the Go scheduler, so
// exactly one of them runs at any time and simulations stay
// deterministic. A panic inside a process unwinds through Engine.Run to
// its caller.
type Process struct {
	eng   *Engine
	name  string
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	done  bool

	// Cached event callbacks, so Sleep and wake schedule without
	// allocating a closure per call.
	stepFn func()
	wakeFn func()

	// waitGen numbers the process's waits on a Signal, Mailbox or
	// Completion. A process is blocked at no more than one point at a
	// time, so the number of the current wait is all the state a wait
	// needs; the fire callback of an ended wait finds a different number
	// and does nothing.
	waitGen uint64
}

// Go starts fn as a new simulated process at the current time.
func (e *Engine) Go(name string, fn func(p *Process)) *Process {
	p := &Process{eng: e, name: name}
	p.stepFn = func() { e.step(p) }
	p.wakeFn = p.wake
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		p.done = true
	})
	e.Schedule(0, p.stepFn)
	return p
}

// step transfers control to p until it yields or finishes.
func (e *Engine) step(p *Process) {
	prev := e.running
	e.running = p
	p.next()
	e.running = prev
}

// park yields control back to the engine; the process stays blocked until
// some event calls wake.
func (p *Process) park() {
	p.yield(struct{}{})
}

// wake schedules the process to continue at the current simulated time.
func (p *Process) wake() {
	p.eng.Schedule(0, p.stepFn)
}

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Name returns the process name (for traces).
func (p *Process) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.Now() }

// Done reports whether the process function has returned.
func (p *Process) Done() bool { return p.done }

// Sleep blocks the process for d of simulated time.
func (p *Process) Sleep(d Duration) {
	if p.eng.running != p {
		panic("sim: Sleep called from outside the running process")
	}
	p.eng.Schedule(d, p.wakeFn)
	p.park()
}

// waitFire opens a new wait and returns the callback that ends it. The
// caller registers the callback with whatever will fire it, then parks.
func (p *Process) waitFire() func() {
	p.waitGen++
	gen := p.waitGen
	return func() { p.fire(gen) }
}

// fire ends wait gen and wakes the process, unless that wait has ended.
func (p *Process) fire(gen uint64) {
	if gen == p.waitGen {
		p.waitGen++
		p.wake()
	}
}

// Signal is a broadcast wake-up point for processes.
type Signal struct {
	waiters []func()
}

// Wait blocks p until the next Broadcast.
func (s *Signal) Wait(p *Process) {
	s.waiters = append(s.waiters, p.waitFire())
	p.park()
}

// Broadcast wakes every currently waiting process.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		w()
	}
}

// Waiters reports how many processes are blocked on the signal.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Mailbox is an unbounded FIFO queue with blocking receive, for passing
// messages between simulated processes and event-driven components.
type Mailbox[T any] struct {
	items   []T
	waiters []func()
}

// Send enqueues v and wakes one waiting receiver, if any. Send never
// blocks and may be called from event callbacks.
func (m *Mailbox[T]) Send(v T) {
	m.items = append(m.items, v)
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		w()
	}
}

// Recv blocks p until an item is available and returns it.
func (m *Mailbox[T]) Recv(p *Process) T {
	for len(m.items) == 0 {
		m.waiters = append(m.waiters, p.waitFire())
		p.park()
	}
	v := m.items[0]
	m.items = m.items[1:]
	return v
}

// TryRecv returns the next item without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) {
	var zero T
	if len(m.items) == 0 {
		return zero, false
	}
	v := m.items[0]
	m.items = m.items[1:]
	return v, true
}

// Len reports the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) }

// Completion is a one-shot future: an event-driven component completes it
// and a process can wait for it.
type Completion[T any] struct {
	done   bool
	val    T
	err    error
	fires  []func()
	String string
}

// Complete resolves the completion with a value.
func (c *Completion[T]) Complete(v T) { c.resolve(v, nil) }

// Fail resolves the completion with an error.
func (c *Completion[T]) Fail(err error) {
	var zero T
	c.resolve(zero, err)
}

func (c *Completion[T]) resolve(v T, err error) {
	if c.done {
		panic(fmt.Sprintf("sim: completion resolved twice (%v)", c.String))
	}
	c.done = true
	c.val = v
	c.err = err
	fires := c.fires
	c.fires = nil
	for _, f := range fires {
		f()
	}
}

// IsDone reports whether the completion has resolved.
func (c *Completion[T]) IsDone() bool { return c.done }

// Wait blocks p until the completion resolves and returns its result.
func (c *Completion[T]) Wait(p *Process) (T, error) {
	if !c.done {
		c.fires = append(c.fires, p.waitFire())
		p.park()
	}
	return c.val, c.err
}

// OnDone registers fn to run when the completion resolves (immediately if
// it already has).
func (c *Completion[T]) OnDone(fn func(T, error)) {
	if c.done {
		fn(c.val, c.err)
		return
	}
	c.fires = append(c.fires, func() { fn(c.val, c.err) })
}
