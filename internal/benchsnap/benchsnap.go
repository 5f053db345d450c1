// Package benchsnap reads, writes and compares bench snapshots — the
// committed BENCH_*.json performance trajectory. A snapshot records one
// strombench invocation: the wall-clock time of every generator plus
// every figure value it produced. Figure values are pure functions of
// (options, seed), so any drift in a "value/" series is a behavior
// change; "wall_ms/" series are wall-clock and only regress when they
// grow beyond the (looser) wall tolerance by more than the noise floor.
package benchsnap

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Schema is the current snapshot schema version.
const Schema = 1

// Snapshot is one recorded bench run.
type Snapshot struct {
	// SchemaVersion guards against comparing incompatible snapshots.
	SchemaVersion int `json:"schema"`
	// Label names the run (e.g. "pr6-default").
	Label string `json:"label"`
	// Command reproduces the invocation that wrote the snapshot.
	Command string `json:"command,omitempty"`
	// GOMAXPROCS and NumCPU record the host parallelism the wall-clock
	// series were measured under.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// Seed is the simulation seed. Snapshots written before the
	// simulator had one engine mode also carry a "shards" field, which
	// Read ignores.
	Seed int64 `json:"seed"`
	// Note carries free-form context for readers of the committed file.
	Note string `json:"note,omitempty"`
	// Series maps tracked series keys to values. Key classes:
	//   wall_ms/<experiment>            wall-clock, lower is better
	//   value/<experiment>/<series>/<x> figure value, deterministic
	Series map[string]float64 `json:"series"`
}

// New returns an empty snapshot with the schema stamped.
func New(label string) *Snapshot {
	return &Snapshot{SchemaVersion: Schema, Label: label, Series: map[string]float64{}}
}

// Put records one series value.
func (s *Snapshot) Put(key string, v float64) {
	if s.Series == nil {
		s.Series = map[string]float64{}
	}
	s.Series[key] = v
}

// Write marshals the snapshot to path. encoding/json sorts map keys, so
// the file is deterministic for a given series set.
func Write(path string, s *Snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read loads a snapshot and validates the schema.
func Read(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.SchemaVersion != Schema {
		return nil, fmt.Errorf("%s: snapshot schema %d, want %d", path, s.SchemaVersion, Schema)
	}
	return &s, nil
}

// WallTotalKey is the one wall-clock series that is regression-gated:
// the whole-suite total. Per-experiment wall times on a shared host
// spike arbitrarily — a single scheduler preemption doubles a 150ms
// experiment — so gating on them is flaky by construction; the suite
// total averages that noise out. The per-experiment series are still
// recorded (for reading the committed trajectory) and still count as
// lost coverage when they vanish.
const WallTotalKey = "wall_ms/_total"

// WallFloorMS is the absolute wall-clock noise floor: the gated wall
// series never regresses on a growth smaller than this, whatever the
// relative change.
const WallFloorMS = 100

// Regression is one tracked series that got worse.
type Regression struct {
	Key      string
	Old, New float64
	// Rel is the relative change |new-old|/|old| (new/old-1 for wall
	// series, where only growth regresses).
	Rel float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %g -> %g (%+.1f%%)", r.Key, r.Old, r.New, r.Rel*100)
}

// Diff compares every series of old against new. Deterministic value
// series ("value/") regress when they deviate in either direction by
// more than tol — their values are pure functions of (options, seed),
// so any drift is a behavior change, not noise. Wall-clock series
// ("wall_ms/") are measured: only WallTotalKey is regression-gated,
// under the looser wallTol and the WallFloorMS absolute floor; the
// per-experiment wall series are informational. Series present in old
// but absent from new are returned in missing (a vanished series means
// the suite lost coverage); series only in new are ignored.
func Diff(old, new *Snapshot, tol, wallTol float64) (regs []Regression, missing []string) {
	keys := make([]string, 0, len(old.Series))
	for k := range old.Series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ov := old.Series[k]
		nv, ok := new.Series[k]
		if !ok {
			missing = append(missing, k)
			continue
		}
		if strings.HasPrefix(k, "wall_ms/") {
			if k != WallTotalKey || ov <= 0 {
				continue // informational timing, or nothing to gate on
			}
			rel := nv/ov - 1
			if rel > wallTol && nv-ov > WallFloorMS {
				regs = append(regs, Regression{Key: k, Old: ov, New: nv, Rel: rel})
			}
			continue
		}
		var rel float64
		switch {
		case ov == 0 && nv == 0:
			continue
		case ov == 0:
			rel = math.Inf(1)
		default:
			rel = math.Abs(nv-ov) / math.Abs(ov)
		}
		if rel > tol {
			regs = append(regs, Regression{Key: k, Old: ov, New: nv, Rel: rel})
		}
	}
	return regs, missing
}
