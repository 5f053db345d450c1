package experiments

import (
	"bytes"
	"regexp"
	"testing"

	"strom/internal/telemetry/export"
)

// kvAllow is the chaos-kv stream's alert allowlist — the same set the
// soak flow passes to stromtail. Loss bursts trip out-discards and
// retry-storm, crash cycles trip kv-heartbeat (required: that alert IS
// the failure detector) plus qp-errors from flushed QPs, the rogue
// trips remote-access, the incast waves may trip pfc-pause/ecn-marked,
// and crash-failover latency tails may push op-latency-p99 over.
// fcs-err rides along because the NIC maps roce RxDiscarded onto it:
// in-flight frames arriving at a crashed or freshly reset QP are
// discarded as undecodable, same counter the ICRC check feeds.
var kvAllow = regexp.MustCompile(`^(out-discards|retry-storm|kv-heartbeat|qp-errors|remote-access|watchdog|pfc-pause|ecn-marked|op-latency-p99|fcs-err)$`)

// The chaos-kv sweep is the robustness gate: all four regimes must
// complete with a clean audit (runKV fails otherwise), the clean point
// must need no recovery machinery, and the crash points must prove the
// detector→failover→repair pipeline actually ran.
func TestChaosKVSweepRegimes(t *testing.T) {
	clean, err := runKV(Quick(), kvFaults{}, nil, nil, nil)
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	if clean.retries != 0 || clean.failovers != 0 || clean.repairs != 0 || clean.detectorFires != 0 {
		t.Errorf("clean point exercised recovery machinery: %+v", clean)
	}
	if clean.acked == 0 || clean.gets == 0 {
		t.Errorf("clean point moved no ops: %+v", clean)
	}
	storm, err := runKV(Quick(), kvFaults{loss: true, crashes: true, storm: true}, nil, nil, nil)
	if err != nil {
		t.Fatalf("storm: %v", err)
	}
	if storm.detectorFires == 0 || storm.failovers == 0 || storm.repairs == 0 {
		t.Errorf("storm point never exercised detection/failover/repair: %+v", storm)
	}
	if storm.retries == 0 || storm.dupSuppressed == 0 || storm.rkeyRefetches == 0 {
		t.Errorf("storm point never exercised the retry protocol: %+v", storm)
	}
	if storm.faults == 0 {
		t.Errorf("storm point injected no faults: %+v", storm)
	}
}

// The chaos-kv JSONL stream must carry the failure detector's alert
// (kv-heartbeat is how the failover controller learns of the crash, so
// it firing is a correctness property, not a nicety) and the per-QP
// retry-storm rule, with nothing outside the allowlist.
func TestKVJSONLAlerts(t *testing.T) {
	var w bytes.Buffer
	if err := WriteKVTelemetryExports(Quick(), nil, nil, &w); err != nil {
		t.Fatalf("WriteKVTelemetryExports: %v", err)
	}
	tail, err := export.ReadAll(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	for _, rule := range []string{"kv-heartbeat", "retry-storm"} {
		if tail.Fired(rule) == 0 {
			t.Errorf("rule %q did not fire in the chaos-kv stream (fired: %v)", rule, tail.FiredAlerts())
		}
	}
	if got := tail.UnexpectedAlerts(kvAllow); len(got) != 0 {
		t.Errorf("alerts outside the chaos-kv allowlist fired: %v", got)
	}
	// Both crash cycles must be detected AND resolve: the stream ends
	// with every server restarted, heartbeats moving again.
	if got := tail.Fired("kv-heartbeat"); got < 2 {
		t.Errorf("kv-heartbeat fired %d times, want both crash cycles detected", got)
	}
	// Every KV server's heartbeat surface must be in the stream.
	seen := 0
	for _, o := range tail.Objects {
		if o.Subsystem == "kv" {
			seen++
			if o.Scrapes < 2 {
				t.Errorf("kv object %s scraped only %d times", o.Object, o.Scrapes)
			}
		}
	}
	if seen != kvServers {
		t.Errorf("stream has %d kv health objects, want %d", seen, kvServers)
	}
}

// The chaos-kv exports are pure functions of Options: byte-identical
// across repeated runs.
func TestKVTelemetryByteIdentical(t *testing.T) {
	run := func(o Options) (string, string, string) {
		var m, tr, j bytes.Buffer
		if err := WriteKVTelemetryExports(o, &m, &tr, &j); err != nil {
			t.Fatalf("WriteKVTelemetryExports: %v", err)
		}
		return m.String(), tr.String(), j.String()
	}
	m1, tr1, j1 := run(Quick())
	m2, tr2, j2 := run(Quick())
	if m1 != m2 || tr1 != tr2 || j1 != j2 {
		t.Error("repeated same-seed runs differ")
	}
}
