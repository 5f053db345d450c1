package sim

import "testing"

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(Nanosecond, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(0, tick)
	e.Run()
}

func BenchmarkEngineQueuedEvents(b *testing.B) {
	// Scheduling cost with a deep queue (the heap path).
	e := NewEngine(1)
	for i := 0; i < 10000; i++ {
		e.Schedule(Duration(i)*Microsecond, func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i%10000)*Microsecond, func() {}).Cancel()
	}
}

func BenchmarkSerializerReserve(b *testing.B) {
	e := NewEngine(1)
	s := NewSerializer(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reserve(Nanosecond)
	}
}

func BenchmarkProcessSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Go("p", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkCompletionWait measures one Completion wait: a process blocks
// on a fresh completion that an event resolves a nanosecond later.
func BenchmarkCompletionWait(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Go("p", func(p *Process) {
		for i := 0; i < b.N; i++ {
			c := &Completion[int]{}
			e.Schedule(Nanosecond, func() { c.Complete(i) })
			c.Wait(p)
		}
	})
	b.ResetTimer()
	e.Run()
}
