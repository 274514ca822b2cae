package experiments

import (
	"strings"
	"testing"
)

// TestMergePartialsRejectsBadPatternState checks that the gateway merge
// refuses a partial whose Table 1 tally could not come from a collector: an
// unknown pattern key, or a total that is not the sum of the counts. Either
// would let the merged pattern rows stop summing to 100%.
func TestMergePartialsRejectsBadPatternState(t *testing.T) {
	partial := func(name string, counts map[string]uint64, total uint64) *PartialSuite {
		st := NewSuiteCollectors().State()
		st.Patterns.Counts, st.Patterns.Total = counts, total
		return &PartialSuite{Benchmarks: []BenchJSON{{Name: name, Insts: 1}}, Collectors: st}
	}
	good := partial("a", map[string]uint64{"eees": 3, "ssss": 1}, 4)
	for _, tc := range []struct {
		name    string
		bad     *PartialSuite
		wantErr string
	}{
		{"none", partial("b", map[string]uint64{"eess": 2}, 2), ""},
		{"unknown key", partial("b", map[string]uint64{"ssss": 10, "xxxx": 10}, 20), `unknown pattern "xxxx"`},
		{"total mismatch", partial("b", map[string]uint64{"ssss": 10}, 20), "sum to 10"},
	} {
		out, _, err := MergePartials([]string{"a", "b"}, []*PartialSuite{good, tc.bad})
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
				continue
			}
			sum := 0.0
			for _, row := range out.Patterns {
				sum += row.Percent
			}
			if sum < 99.999 || sum > 100.001 {
				t.Errorf("%s: merged pattern rows sum to %.3f%%", tc.name, sum)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
