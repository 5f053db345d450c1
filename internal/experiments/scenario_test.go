package experiments

import (
	"crypto/sha256"
	"hash"
	"testing"
)

// Every scenario's exports are pure functions of Options: the metrics,
// trace and JSONL streams are byte-identical across repeated same-seed
// runs. The streams are compared by digest, so the largest (the incast
// JSONL, over 100 MB) never sits in memory twice.
func TestScenarioExportsByteIdentical(t *testing.T) {
	empty := sha256.Sum256(nil)
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			run := func() (sums [3][32]byte) {
				var hs [3]hash.Hash
				for i := range hs {
					hs[i] = sha256.New()
				}
				if err := sc.Export(Quick(), Exports{Metrics: hs[0], Trace: hs[1], JSONL: hs[2]}); err != nil {
					t.Fatalf("%s: %v", sc.Name, err)
				}
				for i, h := range hs {
					copy(sums[i][:], h.Sum(nil))
				}
				return sums
			}
			first, second := run(), run()
			for i, name := range []string{"metrics", "trace", "jsonl"} {
				if first[i] == empty {
					t.Errorf("%s export is empty", name)
				}
				if first[i] != second[i] {
					t.Errorf("%s export differs between same-seed runs", name)
				}
			}
		})
	}
}
