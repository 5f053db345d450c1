package benchsnap

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	s := New("test")
	s.Seed = 1
	s.Put("wall_ms/fig5a", 120.5)
	s.Put("value/fig5b/StRoM: Write/64B", 9.43)
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := Write(path, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Label != "test" || got.Seed != 1 || len(got.Series) != 2 {
		t.Fatalf("round trip mangled snapshot: %+v", got)
	}
	if got.Series["value/fig5b/StRoM: Write/64B"] != 9.43 {
		t.Fatalf("series value lost")
	}
}

// Snapshots recorded while the simulator still had a sharded mode carry
// a "shards" field; they must still load and diff against a current one.
func TestReadOlderSnapshotWithShards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{
  "schema": 1,
  "label": "BENCH_quick",
  "gomaxprocs": 1,
  "num_cpu": 1,
  "shards": 4,
  "seed": 1,
  "series": {
    "value/fig5a/StRoM: Write/64B": 2.5,
    "wall_ms/_total": 1000
  }
}
`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Seed != 1 || got.Series["value/fig5a/StRoM: Write/64B"] != 2.5 {
		t.Fatalf("older snapshot mangled: %+v", got)
	}
	cur := New("head")
	cur.Put("value/fig5a/StRoM: Write/64B", 3.0) // +20%: drift
	cur.Put(WallTotalKey, 1000)
	regs, missing := Diff(got, cur, 0.10, 0.50)
	if len(missing) != 0 {
		t.Fatalf("missing = %v, want none", missing)
	}
	if len(regs) != 1 || regs[0].Key != "value/fig5a/StRoM: Write/64B" {
		t.Fatalf("regressions = %v, want the drifted value only", regs)
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	s := New("x")
	s.SchemaVersion = 99
	if err := Write(path, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := Read(path); err == nil {
		t.Fatalf("Read accepted schema 99")
	}
}

func TestDiffSemantics(t *testing.T) {
	old := New("old")
	old.Put("wall_ms/a", 100)
	old.Put(WallTotalKey, 1000)
	old.Put("value/x", 10)
	old.Put("value/y", 10)
	old.Put("value/z", 10)
	old.Put("value/gone", 1)

	cur := New("new")
	cur.Put("wall_ms/a", 900)   // +800%: informational, never gated
	cur.Put(WallTotalKey, 1600) // +60% and +600ms on the total: regression
	cur.Put("value/x", 10)      // unchanged
	cur.Put("value/y", 8.5)     // -15%: deterministic drift, regression
	cur.Put("value/z", 12)      // +20%: drift in the "good" direction still flags
	cur.Put("value/extra", 1)   // new coverage: ignored

	regs, missing := Diff(old, cur, 0.10, 0.50)
	want := map[string]bool{WallTotalKey: true, "value/y": true, "value/z": true}
	if len(regs) != len(want) {
		t.Fatalf("got %d regressions %v, want %d", len(regs), regs, len(want))
	}
	for _, r := range regs {
		if !want[r.Key] {
			t.Errorf("unexpected regression %v", r)
		}
	}
	if len(missing) != 1 || missing[0] != "value/gone" {
		t.Errorf("missing = %v, want [value/gone]", missing)
	}
}

func TestDiffWallTotalTolerance(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, cur float64
		regress  bool
	}{
		{"within tolerance", 1000, 1400, false},
		{"faster", 1000, 500, false},
		{"big relative, tiny absolute", 100, 190, false}, // +90% but +90ms: under the floor
		{"real slowdown", 1000, 2000, true},
	} {
		old := New("old")
		old.Put(WallTotalKey, tc.old)
		cur := New("new")
		cur.Put(WallTotalKey, tc.cur)
		regs, _ := Diff(old, cur, 0.10, 0.50)
		if got := len(regs) > 0; got != tc.regress {
			t.Errorf("%s (%g -> %g): regress = %v, want %v", tc.name, tc.old, tc.cur, got, tc.regress)
		}
	}
}
