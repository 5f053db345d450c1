package main

import (
	"bytes"
	"strings"
	"testing"

	"strom/internal/sim"
	"strom/internal/telemetry/export"
)

// alertingStream builds a small stream whose remote-access rule fires.
func alertingStream(t *testing.T) []byte {
	t.Helper()
	eng := sim.NewEngine(1)
	var naks uint64
	rec := export.NewRecorder(export.DefaultRules())
	rec.Source(eng, "A", "port", "nic:A", func() (map[string]uint64, map[string]float64) {
		return map[string]uint64{"remote_access_naks": naks}, nil
	})
	eng.Go("workload", func(p *sim.Process) {
		p.Sleep(5 * sim.Microsecond)
		naks = 2
		p.Sleep(5 * sim.Microsecond)
	})
	var w bytes.Buffer
	rec.Stream(export.NewWriterSink(&w))
	rec.Start(2 * sim.Microsecond)
	eng.Run()
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

func runTail(t *testing.T, stream []byte, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, bytes.NewReader(stream), &out, &errOut)
	return code, out.String() + errOut.String()
}

func TestTailUnexpectedAlertFails(t *testing.T) {
	code, out := runTail(t, alertingStream(t))
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "UNEXPECTED ALERTS") || !strings.Contains(out, "remote-access") {
		t.Fatalf("output missing verdict:\n%s", out)
	}
}

func TestTailAllowedAlertPasses(t *testing.T) {
	code, out := runTail(t, alertingStream(t), "-allow", "remote-access")
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "OK") || !strings.Contains(out, "nic:A") {
		t.Fatalf("output missing rollup or OK:\n%s", out)
	}
}

func TestTailRequireEnforced(t *testing.T) {
	if code, out := runTail(t, alertingStream(t),
		"-allow", "remote-access", "-require", "remote-access"); code != 0 {
		t.Fatalf("required-and-fired: exit %d, want 0; output:\n%s", code, out)
	}
	code, out := runTail(t, alertingStream(t),
		"-allow", "remote-access", "-require", "watchdog")
	if code != 1 {
		t.Fatalf("required-but-silent: exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "REQUIRED ALERTS SILENT") {
		t.Fatalf("output missing require verdict:\n%s", out)
	}
}

func TestTailGarbageStream(t *testing.T) {
	if code, _ := runTail(t, []byte("not json\n")); code != 2 {
		t.Fatalf("garbage stream: exit %d, want 2", code)
	}
}

func TestTailQuiet(t *testing.T) {
	_, out := runTail(t, alertingStream(t), "-q", "-allow", "remote-access")
	if strings.Contains(out, "nic:A") {
		t.Fatalf("-q still printed the rollup:\n%s", out)
	}
	if !strings.Contains(out, "OK") {
		t.Fatalf("-q swallowed the verdict:\n%s", out)
	}
}
