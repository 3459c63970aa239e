package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unisched/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {5, 0.5}, {20, 0.5}, {50, 0.8}, {100, 0.9}, {500, 0.98},
		{1000, 0.99}, {100000, 0.99},
	} {
		if got := tailQuantile(c.n, 0.99); !near(got, c.want) {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The reported tail always leaves at least minBeyond samples
		// beyond it once there are enough samples for any tail.
		if c.n >= 2*minBeyond {
			if beyond := float64(c.n) * (1 - tailQuantile(c.n, 0.99)); beyond < minBeyond-1e-9 {
				t.Errorf("n=%d leaves %.1f samples beyond the tail", c.n, beyond)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: summarize sorts
	}
	s := summarize(xs, 0.99)
	if s.N != 1000 || !near(s.P50, 500.5) || !near(s.TailQ, 0.99) || !near(s.Tail, 990.01) || s.Max != 1000 {
		t.Fatalf("summarize(1..1000) = %+v", s)
	}
	small := summarize([]float64{3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30}, 0.99)
	if !near(small.TailQ, 1-10.0/30) {
		t.Fatalf("30 samples report the tail at q=%v, want %v", small.TailQ, 1-10.0/30)
	}
	if empty := summarize(nil, 0.99); empty.N != 0 || empty.P50 != 0 || empty.Tail != 0 {
		t.Fatalf("summarize(nil) = %+v", empty)
	}
}

// fakeClock advances only when the generator sleeps or a request takes
// time; oversleep models a generator that wakes late.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.now = c.now.Add(d + c.oversleep)
}

func TestOpenLoopChargesStall(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	const interval = 10 * time.Millisecond
	// Request 1 stalls for 35ms; requests 2 to 4 are due while it is
	// outstanding and queue behind it on the one connection.
	cost := []time.Duration{time.Millisecond, 35 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	samples := openLoop(len(cost), t0, interval, clk, func(i int) bool {
		clk.now = clk.now.Add(cost[i])
		return true
	})
	wantLat := []time.Duration{1, 35, 26, 17, 8, 1} // ms, each from its due time
	for i, s := range samples {
		if due := t0.Add(time.Duration(i) * interval); !s.Due.Equal(due) {
			t.Fatalf("request %d due %v, want %v", i, s.Due.Sub(t0), due.Sub(t0))
		}
		if got := s.Latency(); got != wantLat[i]*time.Millisecond {
			t.Errorf("request %d latency %v, want %v", i, got, wantLat[i]*time.Millisecond)
		}
		// Sent when due or as soon as the connection was free, so the
		// service, not the generator, owns every millisecond of it.
		if s.Start.Before(s.Due) {
			t.Errorf("request %d sent %v before it was due", i, s.Due.Sub(s.Start))
		}
	}
	for i, lag := range generatorLag(samples) {
		if lag != 0 {
			t.Errorf("request %d: generator lag %vms, want 0 (the wait was the server's)", i, lag)
		}
	}

	// A generator that wakes 3ms late is lagging, and it is reported.
	late := &fakeClock{now: t0, oversleep: 3 * time.Millisecond}
	samples = openLoop(4, t0.Add(interval), interval, late, func(i int) bool {
		late.now = late.now.Add(time.Millisecond)
		return true
	})
	for i, lag := range generatorLag(samples) {
		if !near(lag, 3) {
			t.Errorf("oversleeping generator: request %d lag %vms, want 3", i, lag)
		}
		if got := samples[i].Latency(); got != 4*time.Millisecond {
			t.Errorf("oversleeping generator: request %d latency %v, want 4ms", i, got)
		}
	}
}

func TestFailureKinds(t *testing.T) {
	states := map[string]int64{
		"placed": 50, "done": 20, "shed": 4, "exhausted": 3, "rejected": 2, "queued": 6,
	}
	f := fromStates(states, 1)
	want := failures{Shed: 4, Exhausted: 3, Rejected: 2, Pending: 6, Lost: 1}
	if f != want {
		t.Fatalf("fromStates = %+v, want %+v", f, want)
	}
	if f.total() != 16 || reachedPlaced(states) != 70 {
		t.Fatalf("total %d reached %d, want 16 and 70", f.total(), reachedPlaced(states))
	}

	// Federation: the merged shed bucket holds the coordinator's give-ups.
	ff := federationFailures(states, 0, 3)
	if ff.Shed != 1 || ff.FedShed != 3 || ff.total() != 15 {
		t.Fatalf("federationFailures = %+v (total %d), want shed 1, federation shed 3, total 15", ff, ff.total())
	}

	// Service: refused POSTs are client-side failures; the shed records
	// they leave in the engine are the same pods and are not re-counted.
	sf := serviceFailures(5, 2, states, 0)
	if sf.Shed != 0 || sf.Non202 != 5 || sf.Transport != 2 || sf.total() != 5+2+3+2+6 {
		t.Fatalf("serviceFailures = %+v (total %d)", sf, sf.total())
	}

	// Every kind counts exactly once.
	one := failures{1, 1, 1, 1, 1, 1, 1, 1}
	if one.total() != 8 || len(one.asMap()) != 8 {
		t.Fatalf("failures has %d kinds in total() and %d in asMap(), want 8", one.total(), len(one.asMap()))
	}
	if got := addFailures(one, one); got.total() != 16 {
		t.Fatalf("addFailures total %d, want 16", got.total())
	}
}

func TestBucketHistMatchesProgram(t *testing.T) {
	var h obs.LatencyHist
	for i := 1; i <= 2000; i++ {
		h.Observe(time.Duration(i*i) * time.Microsecond / 7)
	}
	b, c, s, n := h.Export()
	bh := bucketHist{Bounds: b, Cum: c, Sum: s, Count: n}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got, want := bh.quantile(q), h.Quantile(q); !near(got, want) {
			t.Errorf("q=%v: bucketHist %v, program %v", q, got, want)
		}
	}
	if !near(bh.mean(), h.Mean()) {
		t.Errorf("mean %v, program %v", bh.mean(), h.Mean())
	}

	// The same histogram through the Prometheus text form.
	var sb strings.Builder
	x := obs.NewExposition(&sb)
	x.Histogram("unisched_pod_e2e_seconds", "e2e", b, c, s, n)
	if err := x.Flush(); err != nil {
		t.Fatal(err)
	}
	parsed, err := promHistograms(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	ph := parsed["unisched_pod_e2e_seconds"]
	if ph.Count != n || !near(ph.quantile(0.5), h.Quantile(0.5)) {
		t.Fatalf("parsed histogram count %d p50 %v, want %d and %v", ph.Count, ph.quantile(0.5), n, h.Quantile(0.5))
	}
	var merged bucketHist
	merged.add(bh)
	merged.add(bh)
	if merged.Count != 2*n || !near(merged.quantile(0.5), bh.quantile(0.5)) {
		t.Fatalf("merging a histogram with itself changed its median: %v vs %v", merged.quantile(0.5), bh.quantile(0.5))
	}
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range catalog {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// TestCatalogMatchesBenchmarkJSON keeps the metric table and the
// committed benchmark definition in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name, unit, better string, layer bool) {
		m, ok := metricByName(name)
		if !ok {
			t.Errorf("BENCHMARK.json metric %s is not in the catalog", name)
			return
		}
		if m.Unit != unit || m.Better != better || m.Layer != layer {
			t.Errorf("%s: BENCHMARK.json says %s/%s/layer=%v, catalog %s/%s/layer=%v",
				name, unit, better, layer, m.Unit, m.Better, m.Layer)
		}
		seen[name] = true
	}
	for _, m := range bj.EndToEnd {
		check(m.Name, m.Unit, m.Better, false)
	}
	for _, m := range bj.PerLayer {
		check(m.Name, m.Unit, m.Better, true)
	}
	for _, m := range catalog {
		if !seen[m.Name] {
			t.Errorf("catalog metric %s is missing from BENCHMARK.json", m.Name)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
}

// tinySizes shrink every workload so a smoke run takes seconds.
func tinySizes() sizes {
	return sizes{
		OptumParts: 2, OptumNodes: 6, OptumHours: 1, OptumPods: 200, OptumWiden: 2,
		FleetNodes: 300, FleetFill: 0.9, FleetHorizonTicks: 8,
		ServiceParts: 2, ServiceNodes: 6, ServiceHours: 1, ServiceWiden: 2,
		ServiceRate: 200, ServiceSampleEvery: 2,
		SetupReps: 1, MinRounds: 1, LatencySamples: 50,
	}
}

// TestSmokeEveryWorkload runs each workload at a tiny size in both modes
// and checks that every metric of the mode is measured, with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon")
	}
	dir := t.TempDir()
	daemon := filepath.Join(dir, "unischedd")
	build := exec.Command("go", "build", "-o", daemon, "unisched/cmd/unischedd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build unischedd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{Workload: w, Seed: 3, Seconds: 1, Traced: traced, Daemon: daemon, OutDir: dir, Root: ".."}
			res, r, err := run(o, tinySizes())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if len(r.Errors) > 0 {
				t.Errorf("%s traced=%v: checks failed: %v", w, traced, r.Errors)
			}
			if res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d", w, traced, res.Attempted)
			}
			for _, m := range catalog {
				if m.Layer != traced {
					continue
				}
				if r.Invalid != "" && latencyMetric(m.Name) {
					continue // withheld by design on an invalid open-loop run
				}
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s unit %q, want %q", w, m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s = %v", w, m.Name, got.Value)
				}
			}
			if n := len(res.Metrics); !traced && n != 4 {
				t.Errorf("%s: %d end-to-end metrics, want 4", w, n)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, w+"-seed3-traced.spans.jsonl")); err != nil {
					t.Errorf("%s: traced run wrote no spans: %v", w, err)
				}
			}
		}
	}
}
