package experiments

import (
	"bytes"
	"regexp"
	"testing"

	"strom/internal/telemetry/export"
)

// kvlargeAllow is the chaos-kv-large stream's alert allowlist — the
// same set the soak flow passes to stromtail. The racing phases trip
// torn-read (required: that alert IS the detection surface), loss
// bursts trip out-discards and retry-storm, crash cycles trip
// kv-heartbeat and qp-errors plus remote-access from stale-rkey NAKs
// after a restart, and the recovery tails may push op-latency-p99,
// pfc-pause/ecn-marked or the watchdog over.
var kvlargeAllow = regexp.MustCompile(`^(out-discards|retry-storm|kv-heartbeat|torn-read|qp-errors|remote-access|watchdog|pfc-pause|ecn-marked|op-latency-p99|fcs-err)$`)

// The chaos-kv-large sweep is the torn-read gate: all four regimes must
// complete with a clean audit and zero torn values served (runKVLarge
// fails otherwise), the clean point must see no torn reads at all, and
// every racing point must prove the detect→retry pipeline ran. The
// crash point's orphan-reap and detection gates live in runKVLarge.
func TestChaosKVLargeSweepRegimes(t *testing.T) {
	clean, err := runKVLarge(Quick(), kvlFaults{}, nil, nil, nil)
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	if clean.tornDetected != 0 || clean.tornFailovers != 0 {
		t.Errorf("clean point saw torn reads: %+v", clean)
	}
	if clean.spilledReads == 0 || clean.largePuts == 0 || clean.acked == 0 {
		t.Errorf("clean point never exercised the large-value path: %+v", clean)
	}
	racing, err := runKVLarge(Quick(), kvlFaults{racing: true}, nil, nil, nil)
	if err != nil {
		t.Fatalf("racing: %v", err)
	}
	if racing.tornDetected == 0 || racing.tornRetries == 0 {
		t.Errorf("racing point never detected+retried a torn read: %+v", racing)
	}
	loss, err := runKVLarge(Quick(), kvlFaults{racing: true, loss: true}, nil, nil, nil)
	if err != nil {
		t.Fatalf("loss: %v", err)
	}
	if loss.tornDetected == 0 || loss.faults == 0 {
		t.Errorf("loss point never detected a torn read under faults: %+v", loss)
	}
	crash, err := runKVLarge(Quick(), kvlFaults{racing: true, loss: true, crashes: true}, nil, nil, nil)
	if err != nil {
		t.Fatalf("crash: %v", err)
	}
	if crash.tornDetected == 0 || crash.tornRetries == 0 {
		t.Errorf("crash point never detected+retried a torn read: %+v", crash)
	}
	if crash.orphansReaped == 0 || crash.detectorFires == 0 || crash.repairs == 0 {
		t.Errorf("crash point never exercised orphan reaping or repair: %+v", crash)
	}
	if crash.faults == 0 {
		t.Errorf("crash point injected no faults: %+v", crash)
	}
}

// The chaos-kv-large JSONL stream must carry the torn-read alert (the
// detection surface the monitoring side watches) and the kv-heartbeat
// failure detector, with nothing outside the allowlist.
func TestKVLargeJSONLAlerts(t *testing.T) {
	var w bytes.Buffer
	if err := WriteKVLargeTelemetryExports(Quick(), nil, nil, &w); err != nil {
		t.Fatalf("WriteKVLargeTelemetryExports: %v", err)
	}
	tail, err := export.ReadAll(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	for _, rule := range []string{"torn-read", "kv-heartbeat"} {
		if tail.Fired(rule) == 0 {
			t.Errorf("rule %q did not fire in the chaos-kv-large stream (fired: %v)", rule, tail.FiredAlerts())
		}
	}
	if got := tail.UnexpectedAlerts(kvlargeAllow); len(got) != 0 {
		t.Errorf("alerts outside the chaos-kv-large allowlist fired: %v", got)
	}
	// The client's torn-read surface must be in the stream with the
	// final counters the audit gated on.
	seen := false
	for _, o := range tail.Objects {
		if o.Subsystem != "kvclient" {
			continue
		}
		seen = true
		if o.Final["kv_torn_detected"] == 0 || o.Final["kv_spilled_reads"] == 0 {
			t.Errorf("kvclient finals show no torn-read work: %v", o.Final)
		}
	}
	if !seen {
		t.Error("stream has no kvclient health object")
	}
}

// The chaos-kv-large exports are pure functions of Options:
// byte-identical across repeated runs.
func TestKVLargeTelemetryByteIdentical(t *testing.T) {
	run := func(o Options) (string, string, string) {
		var m, tr, j bytes.Buffer
		if err := WriteKVLargeTelemetryExports(o, &m, &tr, &j); err != nil {
			t.Fatalf("WriteKVLargeTelemetryExports: %v", err)
		}
		return m.String(), tr.String(), j.String()
	}
	m1, tr1, j1 := run(Quick())
	m2, tr2, j2 := run(Quick())
	if m1 != m2 || tr1 != tr2 || j1 != j2 {
		t.Error("repeated same-seed runs differ")
	}
}
