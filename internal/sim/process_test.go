package sim

import (
	"fmt"
	"testing"
)

func TestProcessSleep(t *testing.T) {
	e := NewEngine(1)
	var marks []Time
	e.Go("p", func(p *Process) {
		marks = append(marks, p.Now())
		p.Sleep(10 * Nanosecond)
		marks = append(marks, p.Now())
		p.Sleep(5 * Nanosecond)
		marks = append(marks, p.Now())
	})
	e.Run()
	want := []Time{0, Time(10 * Nanosecond), Time(15 * Nanosecond)}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("marks[%d] = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestProcessInterleaving(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Go("a", func(p *Process) {
		order = append(order, "a0")
		p.Sleep(10 * Nanosecond)
		order = append(order, "a1")
	})
	e.Go("b", func(p *Process) {
		order = append(order, "b0")
		p.Sleep(5 * Nanosecond)
		order = append(order, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "b1", "a1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestProcessDone(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("p", func(p *Process) { p.Sleep(Nanosecond) })
	if p.Done() {
		t.Error("done before run")
	}
	e.Run()
	if !p.Done() {
		t.Error("not done after run")
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	var sig Signal
	woke := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Process) {
			sig.Wait(p)
			woke++
		})
	}
	e.Schedule(10*Nanosecond, func() {
		if sig.Waiters() != 3 {
			t.Errorf("waiters = %d", sig.Waiters())
		}
		sig.Broadcast()
	})
	e.Run()
	if woke != 3 {
		t.Errorf("woke = %d", woke)
	}
}

func TestMailboxOrder(t *testing.T) {
	e := NewEngine(1)
	var mb Mailbox[int]
	var got []int
	e.Go("recv", func(p *Process) {
		for i := 0; i < 5; i++ {
			got = append(got, mb.Recv(p))
		}
	})
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(Duration(i+1)*Nanosecond, func() { mb.Send(i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestMailboxSendBeforeRecv(t *testing.T) {
	e := NewEngine(1)
	var mb Mailbox[string]
	mb.Send("x")
	if mb.Len() != 1 {
		t.Errorf("len = %d", mb.Len())
	}
	var got string
	e.Go("r", func(p *Process) { got = mb.Recv(p) })
	e.Run()
	if got != "x" {
		t.Errorf("got = %q", got)
	}
	if _, ok := mb.TryRecv(); ok {
		t.Error("TryRecv on empty mailbox succeeded")
	}
}

func TestMailboxTwoReceivers(t *testing.T) {
	e := NewEngine(1)
	var mb Mailbox[int]
	sum := 0
	for i := 0; i < 2; i++ {
		e.Go("r", func(p *Process) { sum += mb.Recv(p) })
	}
	e.Schedule(Nanosecond, func() { mb.Send(1) })
	e.Schedule(2*Nanosecond, func() { mb.Send(2) })
	e.Run()
	if sum != 3 {
		t.Errorf("sum = %d", sum)
	}
}

func TestCompletionWaitAfterResolve(t *testing.T) {
	e := NewEngine(1)
	c := &Completion[int]{}
	c.Complete(7)
	var got int
	e.Go("p", func(p *Process) { got, _ = c.Wait(p) })
	e.Run()
	if got != 7 {
		t.Errorf("got = %d", got)
	}
}

func TestCompletionWaitBeforeResolve(t *testing.T) {
	e := NewEngine(1)
	c := &Completion[int]{}
	var got int
	var at Time
	e.Go("p", func(p *Process) {
		got, _ = c.Wait(p)
		at = p.Now()
	})
	e.Schedule(42*Nanosecond, func() { c.Complete(9) })
	e.Run()
	if got != 9 || at != Time(42*Nanosecond) {
		t.Errorf("got = %d at %v", got, at)
	}
}

func TestCompletionFail(t *testing.T) {
	e := NewEngine(1)
	c := &Completion[int]{}
	var err error
	e.Go("p", func(p *Process) { _, err = c.Wait(p) })
	e.Schedule(Nanosecond, func() { c.Fail(errTest) })
	e.Run()
	if err != errTest {
		t.Errorf("err = %v", err)
	}
}

func TestCompletionDoubleResolvePanics(t *testing.T) {
	c := &Completion[int]{}
	c.Complete(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Complete(2)
}

func TestCompletionOnDone(t *testing.T) {
	c := &Completion[int]{}
	var got int
	c.OnDone(func(v int, err error) { got = v })
	c.Complete(5)
	if got != 5 {
		t.Errorf("got = %d", got)
	}
	// After resolution OnDone fires immediately.
	got = 0
	c.OnDone(func(v int, err error) { got = v })
	if got != 5 {
		t.Errorf("got = %d", got)
	}
}

// TestSleepDoesNotAllocate guards the cached wake and step callbacks: a
// process sleeping in a loop costs no allocation per Sleep.
func TestSleepDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	e.Go("sleeper", func(p *Process) {
		for {
			p.Sleep(Nanosecond)
		}
	})
	e.RunUntil(0)
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now().Add(Nanosecond))
	})
	if allocs != 0 {
		t.Errorf("Sleep allocates %v times, want 0", allocs)
	}
}

// TestCompletionWaitAllocs bounds one Completion wait: the wait state
// lives on the Process, so only the registered fire callback and the
// completion's one-entry callback list allocate.
func TestCompletionWaitAllocs(t *testing.T) {
	e := NewEngine(1)
	c := &Completion[int]{}
	e.Go("waiter", func(p *Process) {
		for {
			p.Sleep(Nanosecond)
			c.Wait(p)
		}
	})
	e.RunUntil(0)
	allocs := testing.AllocsPerRun(100, func() {
		*c = Completion[int]{}
		e.RunUntil(e.Now().Add(Nanosecond)) // wakes and blocks on c
		c.Complete(1)
		e.RunUntil(e.Now()) // resumes and sleeps again
	})
	if allocs > 2 {
		t.Errorf("Completion wait allocates %v times, want at most 2", allocs)
	}
}

// TestStaleFireIsNoOp checks that a wait's fire callback wakes the
// process once: calling it again, during or after a later wait, does
// nothing.
func TestStaleFireIsNoOp(t *testing.T) {
	e := NewEngine(1)
	var fires []func()
	wakes := 0
	p := e.Go("p", func(p *Process) {
		for i := 0; i < 2; i++ {
			fires = append(fires, p.waitFire())
			p.park()
			wakes++
		}
	})
	e.Run()
	fires[0]()
	fires[0]()
	e.Run()
	if wakes != 1 {
		t.Fatalf("wakes = %d after firing the first wait twice, want 1", wakes)
	}
	fires[0]()
	e.Run()
	if wakes != 1 || p.Done() {
		t.Fatalf("stale fire woke the second wait: wakes = %d", wakes)
	}
	fires[1]()
	e.Run()
	if wakes != 2 || !p.Done() {
		t.Errorf("wakes = %d, done = %v, want 2 and done", wakes, p.Done())
	}
}

// TestProcessPanicReachesRun checks that a panic inside a process unwinds
// through Engine.Run with its value, and that the engine can run on.
func TestProcessPanicReachesRun(t *testing.T) {
	e := NewEngine(1)
	e.Go("bad", func(p *Process) {
		p.Sleep(Nanosecond)
		panic("boom")
	})
	ranLater := false
	e.Go("good", func(p *Process) {
		p.Sleep(2 * Nanosecond)
		ranLater = true
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	if e.Now() != Time(Nanosecond) {
		t.Errorf("panic at %v, want 1ns", e.Now())
	}
	e.Run()
	if !ranLater {
		t.Error("process after the panic never ran")
	}
}

// TestProcessParkedAcrossRuns checks that a process blocked on a
// completion nobody resolves lets Run return, and resumes in a later Run
// once the completion resolves.
func TestProcessParkedAcrossRuns(t *testing.T) {
	e := NewEngine(1)
	c := &Completion[int]{}
	var got int
	p := e.Go("p", func(p *Process) { got, _ = c.Wait(p) })
	e.Run()
	if p.Done() || e.Pending() != 0 {
		t.Fatalf("after first Run: done=%v pending=%d", p.Done(), e.Pending())
	}
	c.Complete(3)
	e.Run()
	if !p.Done() || got != 3 {
		t.Errorf("after second Run: done=%v got=%d", p.Done(), got)
	}
}

// TestGoFromProcess checks that processes started from inside a process
// run, in the order they were started, after the starter yields.
func TestGoFromProcess(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Go("parent", func(p *Process) {
		order = append(order, "parent0")
		for _, name := range []string{"child1", "child2"} {
			e.Go(name, func(q *Process) { order = append(order, q.Name()) })
		}
		order = append(order, "parent-started")
		p.Sleep(0)
		order = append(order, "parent1")
	})
	e.Run()
	want := []string{"parent0", "parent-started", "child1", "child2", "parent1"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

type testError string

func (e testError) Error() string { return string(e) }

var errTest = testError("test error")

func TestSerializerBackToBack(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	var ends []Time
	e.Schedule(0, func() {
		ends = append(ends, s.Reserve(10*Nanosecond))
		ends = append(ends, s.Reserve(10*Nanosecond))
	})
	e.Run()
	if ends[0] != Time(10*Nanosecond) || ends[1] != Time(20*Nanosecond) {
		t.Errorf("ends = %v", ends)
	}
	if s.BusyTime() != 20*Nanosecond {
		t.Errorf("busy = %v", s.BusyTime())
	}
}

func TestSerializerIdleGap(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	e.Schedule(0, func() { s.Reserve(5 * Nanosecond) })
	e.Schedule(100*Nanosecond, func() {
		if end := s.Reserve(5 * Nanosecond); end != Time(105*Nanosecond) {
			t.Errorf("end = %v", end)
		}
	})
	e.Run()
}

func TestSerializerReserveFrom(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	end := s.ReserveFrom(Time(50*Nanosecond), 10*Nanosecond)
	if end != Time(60*Nanosecond) {
		t.Errorf("end = %v", end)
	}
	// Next reservation from an earlier time queues behind.
	end = s.ReserveFrom(Time(10*Nanosecond), 10*Nanosecond)
	if end != Time(70*Nanosecond) {
		t.Errorf("end = %v", end)
	}
}
