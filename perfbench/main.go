// Command perfbench is the repository's benchmark. It runs one named
// workload against the scheduler as it stands, checks the outputs, and
// prints every metric by name and unit; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with all
// tracing off; with -trace 1 they are the per-layer ones, from a run
// that also turns the program's lifecycle recorder on. See README.md.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload optum-backlog --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// sizes are the workload shapes. defaultSizes is what the benchmark
// measures; tests shrink them.
type sizes struct {
	// The Optum backlog mixes OptumParts traces of OptumNodes hosts over
	// OptumHours, each cut to its first OptumPods pods with its fleet
	// widened OptumWiden times (see mixedTrace).
	OptumParts, OptumNodes, OptumHours, OptumPods, OptumWiden int

	// The fleet burst fills FleetFill of FleetNodes unit hosts; the
	// clock runs FleetHorizonTicks ticks.
	FleetNodes, FleetHorizonTicks int
	FleetFill                     float64

	// The service replays a mixed trace like the Optum backlog's, uncut,
	// at ServiceRate POSTs per second and polls every
	// ServiceSampleEvery-th pod for placed latency.
	ServiceParts, ServiceNodes, ServiceHours, ServiceWiden int
	ServiceRate                                            float64
	ServiceSampleEvery                                     int

	// Set-up runs at least SetupReps times and until SetupMin is spent.
	SetupReps int
	SetupMin  time.Duration
	// In-process phases run at least MinRounds rounds, timing placement
	// of about LatencySamples pods per round.
	MinRounds, LatencySamples int
}

func defaultSizes() sizes {
	return sizes{
		OptumParts: 8, OptumNodes: 8, OptumHours: 4, OptumPods: 750, OptumWiden: 4,
		FleetNodes: 8000, FleetHorizonTicks: 8, FleetFill: 0.9,
		ServiceParts: 4, ServiceNodes: 15, ServiceHours: 6, ServiceWiden: 4,
		ServiceRate: 500, ServiceSampleEvery: 2,
		SetupReps: 3, SetupMin: time.Second,
		MinRounds: 2, LatencySamples: 2000,
	}
}

var workloads = []string{"optum-backlog", "fleet-burst", "fleet-federated", "service-durable"}

// options are the command-line settings of one run.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	Daemon   string // unischedd binary, for service-durable
	OutDir   string // where the run record and spans go
	Root     string // repository root (fingerprint)
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.Workload, "workload", "", "workload: "+strings.Join(workloads, " | "))
	fs.Int64Var(&o.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.Seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced mode and prints per-layer metrics")
	fs.StringVar(&o.Daemon, "daemon", ".bench_build/unischedd", "unischedd binary for service-durable")
	fs.StringVar(&o.OutDir, "out", ".bench_build/runs", "directory for run records and spans")
	fs.StringVar(&o.Root, "root", ".", "repository root")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.Traced = trace == 1
	res, _, err := run(o, defaultSizes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// run executes one workload and returns the result line and the full
// report. An error means the benchmark could not run at all; a run that
// ran but failed a check returns a result with correct=false.
func run(o options, sz sizes) (result, *report, error) {
	if o.Seconds <= 0 {
		return result{}, nil, fmt.Errorf("-seconds must be positive")
	}
	calibrationMs := calibrate()
	var rec *spanRecorder
	if o.Traced {
		rec = newSpanRecorder()
	}
	r := newReport(o.Workload)
	var dataDir string
	var err error
	switch o.Workload {
	case "optum-backlog":
		err = runInproc(r, func() (*inputs, error) { return prepareOptum(o.Seed, sz) }, o.Seconds, o.Traced, sz, rec)
		absent(r, serviceOnly...)
		absent(r, "federation.submit_us_p50")
	case "fleet-burst":
		err = runInproc(r, func() (*inputs, error) { return prepareFleet(o.Seed, sz, false) }, o.Seconds, o.Traced, sz, rec)
		absent(r, serviceOnly...)
		absent(r, "federation.submit_us_p50")
	case "fleet-federated":
		err = runInproc(r, func() (*inputs, error) { return prepareFleet(o.Seed, sz, true) }, o.Seconds, o.Traced, sz, rec)
		absent(r, serviceOnly...)
		r.set("federation.submit_us_p50", r.Values["engine.submit_us_p50"])
	case "service-durable":
		dataDir, err = runService(r, o, sz, rec)
		absent(r, "profiler.train_s", "engine.submit_us_p50", "engine.submit_us_p99",
			"federation.submit_us_p50", "federation.spills_per_pod", "federation.shed_frac")
	default:
		return result{}, nil, fmt.Errorf("unknown -workload %q (want one of %s)", o.Workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return result{}, nil, err
	}
	if _, ok := r.Values["peak_rss_mb"]; !ok { // the service measured its daemon
		r.set("peak_rss_mb", peakRSSMB(0))
	}
	res := r.toResult(o.Traced)
	fp := hostFingerprint(o.Root, dataDir, calibrationMs)
	printHuman(r, res, fp)
	if err := writeRecord(o, r, res, fp, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write run record:", err)
	}
	return res, r, nil
}

// serviceOnly are the layers only the HTTP service workload exercises.
var serviceOnly = []string{
	"unischedd.ready_s", "unischedd.get_pod_ms_p50", "quota.shed_frac",
	"journal.records_per_placement", "journal.bytes_per_placement", "journal.fsyncs_per_s",
	"journal.fsync_ms_mean", "journal.fsync_ms_p99", "journal.recover_s",
	"loadgen.late_ms_p99", "loadgen.late_ms_max",
}

// absent reports 0 for layers that are not on the workload's path.
func absent(r *report, names ...string) {
	for _, n := range names {
		if _, ok := r.Values[n]; !ok {
			r.set(n, 0)
		}
	}
}

func printHuman(r *report, res result, fp fingerprint) {
	fmt.Printf("workload %s: attempted %d, failed %d, correct %v\n", r.Workload, res.Attempted, res.Failed, res.Correct)
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, git %s, source %s",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.GitSHA, fp.SourceHash)
	if fp.DataDirFS != "" {
		fmt.Printf(", data dir on %s", fp.DataDirFS)
	}
	fmt.Printf(", calibration loop %.1fms\n", fp.CalibrationMs)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, e := range r.Errors {
		fmt.Println("CHECK FAILED:", e)
	}
	if r.Invalid != "" {
		fmt.Println("INVALID RUN:", r.Invalid)
	}
	for _, n := range r.Notes {
		fmt.Println("finding:", n)
	}
}

// writeRecord saves the full run (every measured value, findings, the
// host fingerprint) and, for traced runs, the benchmark's own spans.
func writeRecord(o options, r *report, res result, fp fingerprint, rec *spanRecorder) error {
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if o.Traced {
		mode = "traced"
	}
	base := filepath.Join(o.OutDir, fmt.Sprintf("%s-seed%d-%s", o.Workload, o.Seed, mode))
	doc := map[string]any{
		"workload": o.Workload, "seed": o.Seed, "seconds": o.Seconds, "traced": o.Traced,
		"time": time.Now().UTC().Format(time.RFC3339), "host": fp, "result": res,
		"values": r.Values, "errors": r.Errors, "invalid": r.Invalid, "findings": r.Notes,
		"details": r.Details, "spans": rec.len(),
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
		return err
	}
	return rec.writeJSONL(base + ".spans.jsonl")
}
