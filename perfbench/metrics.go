package main

import "fmt"

// metricDef names one reported metric. End-to-end metrics are what a user
// of the scheduler sees and are printed by untraced runs; per-layer
// metrics describe one module and are printed by traced runs. The table
// must agree with BENCHMARK.json (TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Layer  bool
}

var catalog = []metricDef{
	// End to end.
	{"setup_s", "s", "lower", false},
	{"placements_per_s", "1/s", "higher", false},
	{"cpu_util_mean", "frac", "higher", false},
	{"peak_rss_mb", "MB", "lower", false},

	// Per layer. A layer that is not on a workload's path reports 0.
	// The submit and placed latencies ride here, without a bound: on the
	// service they follow the disk's fsync latency from run to run (see
	// README.md), too widely for a regression bound.
	{"submit_p50_ms", "ms", "lower", true},
	{"submit_p99_ms", "ms", "lower", true},
	{"placed_p50_ms", "ms", "lower", true},
	{"placed_p99_ms", "ms", "lower", true},
	{"failed_frac", "frac", "lower", true},
	{"engine.retries_per_placement", "count", "lower", true},
	{"engine.decisions_per_placement", "count", "lower", true},
	{"engine.sched_us_per_placement", "us", "lower", true},
	{"engine.commit_conflicts_per_placement", "count", "lower", true},
	{"engine.commit_us_per_placement", "us", "lower", true},
	{"engine.epochs_per_placement", "count", "lower", true},
	{"engine.steals_per_placement", "count", "lower", true},
	{"engine.submit_us_p50", "us", "lower", true},
	{"engine.submit_us_p99", "us", "lower", true},
	{"engine.queue_wait_ms_p50", "ms", "lower", true},
	{"engine.queue_wait_ms_p99", "ms", "lower", true},
	{"engine.e2e_ms_p50", "ms", "lower", true},
	{"engine.unattributed_frac", "frac", "lower", true},
	{"pipeline.scan_us_per_decision", "us", "lower", true},
	{"pipeline.candidates_us_per_decision", "us", "lower", true},
	{"pipeline.nodes_visited_per_decision", "count", "lower", true},
	{"pipeline.nodes_pruned_per_decision", "count", "higher", true},
	{"core.summary_hit_frac", "frac", "higher", true},
	{"unischedd.ready_s", "s", "lower", true},
	{"unischedd.get_pod_ms_p50", "ms", "lower", true},
	{"quota.shed_frac", "frac", "lower", true},
	{"journal.records_per_placement", "count", "lower", true},
	{"journal.bytes_per_placement", "bytes", "lower", true},
	{"journal.fsyncs_per_s", "1/s", "lower", true},
	{"journal.fsync_ms_mean", "ms", "lower", true},
	{"journal.fsync_ms_p99", "ms", "lower", true},
	{"journal.fsync_wait_ms_p50", "ms", "lower", true},
	{"journal.recover_s", "s", "lower", true},
	{"federation.submit_us_p50", "us", "lower", true},
	{"federation.spills_per_pod", "count", "lower", true},
	{"federation.shed_frac", "frac", "lower", true},
	{"federation.route_us_p50", "us", "lower", true},
	{"trace.generate_s", "s", "lower", true},
	{"profiler.train_s", "s", "lower", true},
	{"loadgen.late_ms_p99", "ms", "lower", true},
	{"loadgen.late_ms_max", "ms", "lower", true},
	{"obs.tracing_overhead_frac", "frac", "lower", true},
}

// report is what one workload run produces: every metric value it
// measured, the submission accounting, correctness failures and findings.
type report struct {
	Workload  string
	Attempted int64
	Failed    int64
	// Values holds every metric the run measured, end to end and per
	// layer alike; output picks the set the run mode prints.
	Values map[string]float64
	// Errors are failed correctness checks; any makes the run incorrect.
	Errors []string
	// Invalid, when set, says why the run's latencies cannot be trusted
	// (the open-loop generator fell behind its schedule); such a run
	// reports no latencies and counts as incorrect.
	Invalid string
	// Notes are findings worth reading that do not fail the run.
	Notes []string
	// Details is free-form evidence written to the run's record file.
	Details map[string]any
}

func newReport(workload string) *report {
	return &report{Workload: workload, Values: map[string]float64{}, Details: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.Values[name] = v }

func (r *report) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// outMetric is one metric in the final JSON line.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line the benchmark prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// latencyMetric reports whether a metric is a latency an invalid
// open-loop run must withhold.
func latencyMetric(name string) bool {
	switch name {
	case "submit_p50_ms", "submit_p99_ms", "placed_p50_ms", "placed_p99_ms":
		return true
	}
	return false
}

// toResult selects the metrics the mode prints: end-to-end ones when
// traced is false, per-layer ones when it is true. A metric the run did
// not measure is an error: every workload measures every metric.
func (r *report) toResult(traced bool) result {
	res := result{
		Correct:   len(r.Errors) == 0 && r.Invalid == "",
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]outMetric{},
	}
	if res.Attempted < 1 {
		res.Correct = false
		res.Attempted = 1
		res.Failed = 1
	}
	for _, m := range catalog {
		if m.Layer != traced {
			continue
		}
		if r.Invalid != "" && latencyMetric(m.Name) {
			continue
		}
		v, ok := r.Values[m.Name]
		if !ok {
			r.fail("metric %s was not measured", m.Name)
			res.Correct = false
			continue
		}
		res.Metrics[m.Name] = outMetric{Value: v, Unit: m.Unit}
	}
	return res
}
