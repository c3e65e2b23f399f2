package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/loadgen"
)

// TestSmallRuns runs every workload at reduced size, untraced and traced,
// and checks that verification passes and that every metric the final
// line must carry is printed by name with its unit.
func TestSmallRuns(t *testing.T) {
	for name, wl := range workloads {
		for _, trace := range []bool{false, true} {
			c := &runCtx{seed: 7, seconds: 0.3, size: smallSizes, out: newOutcome()}
			list := endToEnd
			if trace {
				c.tr = newTracer()
				list = perLayer
			}
			if err := execute(c, wl); err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			var out bytes.Buffer
			if err := report(&out, name, c); err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if c.out.failed != 0 || c.out.attempted == 0 {
				t.Fatalf("%s trace=%t: %d of %d failed: %v\n%s", name, trace, c.out.failed, c.out.attempted, c.out.problems, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result: %v", name, trace, err)
			}
			if !res.Correct || len(res.Metrics) != len(list) {
				t.Fatalf("%s trace=%t: correct=%t with %d metrics, want %d", name, trace, res.Correct, len(res.Metrics), len(list))
			}
			for _, s := range list {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, s.name, m, s.unit)
				}
				if _, measured := c.out.values[s.name]; measured && !strings.Contains(out.String(), "metric "+s.name+" ") {
					t.Errorf("%s trace=%t: metric %s not printed by name", name, trace, s.name)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, s.name, m.Value)
				}
			}
		}
	}
}

// TestSeedReplay checks that one seed replays byte-equal schedules and
// payloads, and that another seed does not.
func TestSeedReplay(t *testing.T) {
	inputs := func(seed int64) []byte {
		pool := servePayloads(seed, smallSizes.servePool, 384)
		spec, err := serveSpec(seed, smallSizes, 2, pool)
		if err != nil {
			t.Fatal(err)
		}
		shots, err := loadgen.Plan(spec)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var wells [][]any
		for i := 0; i < 16; i++ {
			for _, w := range ladderWells(rng, 384) {
				wells = append(wells, []any{w.Cell, w.Rate})
			}
		}
		field := seededField(rand.New(rand.NewSource(seed)), 64, func(int) float64 { return 2e7 }, 2e5)
		b, err := json.Marshal([]any{spec, shots, wells, field})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, other := inputs(3), inputs(3), inputs(4)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 3 replayed different inputs")
	}
	if bytes.Equal(a, other) {
		t.Fatal("seeds 3 and 4 gave identical inputs")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric lists in
// step with the benchmark definition at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	specs := func(l []struct{ Name, Unit string }) []spec {
		var out []spec
		for _, m := range l {
			out = append(out, spec{m.Name, m.Unit})
		}
		return out
	}
	if got := specs(def.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, program %v", got, endToEnd)
	}
	if got := specs(def.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, program %v", got, perLayer)
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("%d workloads defined, %d drivers", len(def.Workloads), len(workloads))
	}
}
