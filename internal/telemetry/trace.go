package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"strom/internal/sim"
)

// Event phases, following the Chrome trace-event format that Perfetto
// and chrome://tracing load natively.
const (
	phaseComplete = 'X' // a span: timestamp + duration
	phaseInstant  = 'i' // a point event
)

// traceEvent is one recorded event. Events are kept in emission order,
// which is deterministic because a TraceBuffer belongs to one engine.
type traceEvent struct {
	name string
	cat  string
	ph   byte
	ts   sim.Time
	dur  sim.Duration
	pid  uint32
	tid  uint32
	arg  string // optional free-text detail, exported as args.msg
}

// TraceBuffer records structured span/instant events against simulated
// time and exports them as Chrome trace-event JSON. Tracks are addressed
// by (pid, tid) pairs — one pid per component (a NIC, the fabric), one
// tid per lane inside it (a QP, the TX or RX pipeline, a kernel) — and
// can be named with NameProcess/NameThread.
//
// A buffer is bound to one engine and exports its events in emission
// order.
//
// The nil *TraceBuffer is valid: every method is an allocation-free
// no-op, so instrumentation hooks can run unconditionally on hot paths.
type TraceBuffer struct {
	eng    *sim.Engine
	events []traceEvent

	mu      sync.Mutex // guards the track names
	procs   map[uint32]string
	threads map[uint64]string
}

// NewTrace returns a trace buffer bound to eng.
func NewTrace(eng *sim.Engine) *TraceBuffer {
	return &TraceBuffer{
		eng:     eng,
		procs:   make(map[uint32]string),
		threads: make(map[uint64]string),
	}
}

// NameProcess assigns a display name to a pid track group.
func (t *TraceBuffer) NameProcess(pid uint32, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procs[pid] = name
	t.mu.Unlock()
}

// NameThread assigns a display name to the (pid, tid) track.
func (t *TraceBuffer) NameThread(pid, tid uint32, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[uint64(pid)<<32|uint64(tid)] = name
	t.mu.Unlock()
}

// Instant records a point event at the current simulated time.
func (t *TraceBuffer) Instant(pid, tid uint32, cat, name, arg string) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: phaseInstant, ts: t.eng.Now(), pid: pid, tid: tid, arg: arg,
	})
}

// Complete records a span of the given start and duration.
func (t *TraceBuffer) Complete(pid, tid uint32, cat, name string, start sim.Time, dur sim.Duration, arg string) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: phaseComplete, ts: start, dur: dur, pid: pid, tid: tid, arg: arg,
	})
}

// Span starts a span at the current simulated time and returns the
// closer; calling it records the complete event with the elapsed
// simulated duration. The nil TraceBuffer returns a no-op closer.
func (t *TraceBuffer) Span(pid, tid uint32, cat, name string) func() {
	if t == nil {
		return func() {}
	}
	start := t.eng.Now()
	return func() { t.Complete(pid, tid, cat, name, start, t.eng.Now().Sub(start), "") }
}

// Len reports the number of recorded events.
func (t *TraceBuffer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// jsonEvent is the trace-event wire format.
type jsonEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Pid  uint32            `json:"pid"`
	Tid  uint32            `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type jsonTrace struct {
	TraceEvents     []jsonEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// usec converts a picosecond quantity to trace-format microseconds.
func usec(ps int64) float64 { return float64(ps) / 1e6 }

// WriteJSON emits the buffer as Chrome trace-event JSON (Perfetto /
// chrome://tracing compatible). Metadata events naming processes and
// threads come first, sorted by id; data events follow in emission
// order. Output is byte-for-byte deterministic.
func (t *TraceBuffer) WriteJSON(w io.Writer) error {
	out := jsonTrace{TraceEvents: []jsonEvent{}, DisplayTimeUnit: "ns"}
	if t != nil {
		procs, threads := t.procs, t.threads
		pids := make([]uint32, 0, len(procs))
		for pid := range procs {
			pids = append(pids, pid)
		}
		sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
		for _, pid := range pids {
			out.TraceEvents = append(out.TraceEvents, jsonEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]string{"name": procs[pid]},
			})
		}
		tids := make([]uint64, 0, len(threads))
		for key := range threads {
			tids = append(tids, key)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, key := range tids {
			out.TraceEvents = append(out.TraceEvents, jsonEvent{
				Name: "thread_name", Ph: "M", Pid: uint32(key >> 32), Tid: uint32(key),
				Args: map[string]string{"name": threads[key]},
			})
		}
		for _, ev := range t.events {
			je := jsonEvent{
				Name: ev.name, Cat: ev.cat, Ph: string(ev.ph),
				Ts: usec(int64(ev.ts)), Pid: ev.pid, Tid: ev.tid,
			}
			if ev.ph == phaseComplete {
				d := usec(int64(ev.dur))
				je.Dur = &d
			}
			if ev.ph == phaseInstant {
				je.S = "t" // thread-scoped instant
			}
			if ev.arg != "" {
				je.Args = map[string]string{"msg": ev.arg}
			}
			out.TraceEvents = append(out.TraceEvents, je)
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Render writes the buffer as a human-readable timeline, one line per
// event in emission order — the text view cmd/stromtrace prints.
func (t *TraceBuffer) Render(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, ev := range t.events {
		track := t.trackName(ev.pid, ev.tid)
		var err error
		switch ev.ph {
		case phaseComplete:
			_, err = fmt.Fprintf(w, "[%12v] %-22s %s/%s (%v)", ev.ts, track, ev.cat, ev.name, ev.dur)
		default:
			_, err = fmt.Fprintf(w, "[%12v] %-22s %s/%s", ev.ts, track, ev.cat, ev.name)
		}
		if err != nil {
			return err
		}
		if ev.arg != "" {
			if _, err := fmt.Fprintf(w, " — %s", ev.arg); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// trackName renders the display name of a (pid, tid) track.
func (t *TraceBuffer) trackName(pid, tid uint32) string {
	proc, ok := t.procs[pid]
	if !ok {
		proc = fmt.Sprintf("pid%d", pid)
	}
	if th, ok := t.threads[uint64(pid)<<32|uint64(tid)]; ok {
		return proc + "/" + th
	}
	return fmt.Sprintf("%s/%d", proc, tid)
}
