package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"unisched/internal/engine"
	"unisched/internal/trace"
)

// maxGeneratorLagMs bounds how late the open-loop generator may itself
// run (p99 of its own lag, see generatorLag). Past it the offered load
// was not the scheduled one and the run's latencies are withheld.
const maxGeneratorLagMs = 5.0

// tenants are the two bearer-token tenants of the quota file; pods
// alternate between them.
var tenants = []struct{ name, token string }{
	{"alpha", "tok-alpha"},
	{"beta", "tok-beta"},
}

// serviceInputs are the files and request bodies the daemon workload
// generates from its seed.
type serviceInputs struct {
	dir       string
	tracePath string
	quotaPath string
	pods      []*trace.Pod
	bodies    [][]byte
	horizon   int64
	genS      float64
}

// prepareService generates the trace, widens its fleet, and writes the
// trace and quota files the daemon loads.
func prepareService(o options, sz sizes) (*serviceInputs, error) {
	t0 := time.Now()
	w, err := mixedTrace(o.Seed, sz.ServiceParts, sz.ServiceNodes, sz.ServiceHours, 0, sz.ServiceWiden)
	if err != nil {
		return nil, err
	}
	var capSum trace.Resources
	for _, n := range w.Nodes {
		capSum = capSum.Add(n.Capacity)
	}
	in := &serviceInputs{
		dir:     filepath.Join(o.OutDir, fmt.Sprintf("service-seed%d", o.Seed)),
		pods:    w.Pods,
		horizon: w.Horizon,
	}
	if err := os.RemoveAll(in.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	in.tracePath = filepath.Join(in.dir, "trace.json")
	if err := trace.SaveFile(in.tracePath, w); err != nil {
		return nil, err
	}
	// Each tenant is guaranteed half the fleet and may use all of it, so
	// the replay stays under every limit and the quota gate admits it.
	half := trace.Resources{CPU: capSum.CPU / 2, Mem: capSum.Mem / 2}
	qf := map[string]any{"admin_token": "tok-admin"}
	var ts []map[string]any
	for _, t := range tenants {
		ts = append(ts, map[string]any{"name": t.name, "token": t.token, "guaranteed": half, "max": capSum})
	}
	qf["tenants"] = ts
	raw, _ := json.Marshal(qf)
	in.quotaPath = filepath.Join(in.dir, "quota.json")
	if err := os.WriteFile(in.quotaPath, raw, 0o644); err != nil {
		return nil, err
	}
	for _, p := range w.Pods {
		b, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
	}
	in.genS = time.Since(t0).Seconds()
	return in, nil
}

// daemon is one running unischedd child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stdout *bytes.Buffer
	log    *os.File
	done   chan error
}

// freeAddr asks the kernel for an unused localhost port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon execs the daemon and waits for /readyz, returning the
// process and the time from exec to ready.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{addr: addr, stdout: &bytes.Buffer{}, log: lf, done: make(chan error, 1)}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout = d.stdout
	d.cmd.Stderr = lf
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	deadline := t0.Add(60 * time.Second)
	for {
		resp, err := hc.Get("http://" + addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case err := <-d.done:
			lf.Close()
			return nil, 0, fmt.Errorf("daemon exited before ready: %v (log %s)", err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("daemon not ready after 60s (log %s)", logPath)
		}
	}
}

// stop sends SIGTERM and waits for a graceful exit.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.log.Close()
		return err
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("daemon did not stop within 30s of SIGTERM")
	}
}

// kill stops the process hard and waits for it; a no-op once it exited.
func (d *daemon) kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	d.cmd.Process.Kill()
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
	}
	d.log.Close()
}

// stdoutLine returns the value of key=... in the daemon's stdout.
func (d *daemon) stdoutLine(key string) string {
	for _, line := range strings.Split(d.stdout.String(), "\n") {
		if v, ok := strings.CutPrefix(line, key+"="); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// replayResult is one open-loop replay against one daemon.
type replayResult struct {
	Samples    []loopSample
	Non202     int64
	Transport  int64
	PlacedMs   []float64 // sampled pods, due to seen placed
	Retried    int       // sampled pods placed after at least one failed attempt
	GetMs      []float64
	Wall       time.Duration
	Snap       engine.Snapshot
	CPUUtil    float64
	PeakRSSMB  float64
	Hists      map[string]bucketHist
	Unresolved int
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
			DisableCompression: true,
		},
	}
}

// replay runs the open loop: n POSTs in trace order at rate per second
// on one connection, every sampleEvery-th accepted pod polled on a second
// connection until it is placed.
func replay(d *daemon, in *serviceInputs, n int, rate float64, sampleEvery int, rec *spanRecorder) (*replayResult, error) {
	base := "http://" + d.addr
	post, get := newClient(), newClient()
	defer post.CloseIdleConnections()
	defer get.CloseIdleConnections()
	rr := &replayResult{}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	type sampled struct {
		id  int
		due time.Time
	}
	watch := make(chan sampled, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var pending []sampled
		open := true
		for open || len(pending) > 0 {
			if len(pending) == 0 {
				s, ok := <-watch
				if !ok {
					break
				}
				pending = append(pending, s)
			}
			// Pick up everything accepted since the last sweep.
		drain:
			for {
				select {
				case s, ok := <-watch:
					if !ok {
						open = false
						break drain
					}
					pending = append(pending, s)
				default:
					break drain
				}
			}
			kept := pending[:0]
			for _, s := range pending {
				t0 := time.Now()
				resp, err := get.Get(base + "/v1/pods/" + strconv.Itoa(s.id))
				var st engine.PodStatus
				if err == nil {
					err = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
				}
				t1 := time.Now()
				rr.GetMs = append(rr.GetMs, ms(t1.Sub(t0)))
				rec.add("GET /v1/pods", 0, int64(s.id), t0, t1)
				if err == nil && (st.Phase == "placed" || st.Phase == "done") {
					rr.PlacedMs = append(rr.PlacedMs, ms(t1.Sub(s.due)))
					if st.Attempts > 0 {
						rr.Retried++
					}
					continue
				}
				if !open && time.Since(s.due) > 10*time.Second {
					rr.Unresolved++
					continue
				}
				kept = append(kept, s)
			}
			pending = kept
			if len(pending) > 0 {
				// Poll, do not spin: back-to-back GETs would load the
				// daemon, and take CPU from the generator, more than the
				// measured traffic does.
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	token := func(i int) string { return tenants[i%len(tenants)].token }
	rr.Samples = openLoop(n, start, interval, wallClock{}, func(i int) bool {
		p := in.pods[i]
		req, err := http.NewRequest("POST", base+"/v1/pods", bytes.NewReader(in.bodies[i]))
		if err != nil {
			rr.Transport++
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Authorization", "Bearer "+token(i))
		t0 := time.Now()
		resp, err := post.Do(req)
		if err != nil {
			rr.Transport++
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rec.add("POST /v1/pods", 0, int64(p.ID), t0, time.Now())
		if resp.StatusCode != http.StatusAccepted {
			rr.Non202++
			return false
		}
		if i%sampleEvery == 0 {
			watch <- sampled{p.ID, start.Add(time.Duration(i) * interval)}
		}
		return true
	})
	close(watch)
	wg.Wait()
	last := rr.Samples[len(rr.Samples)-1]
	rr.Wall = last.End.Sub(start)

	// Let the daemon settle what it accepted, then read its counters.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var sn engine.Snapshot // fresh: decoding into a used map would merge stale keys
		if err := getJSON(get, base+"/v1/metrics", &sn); err != nil {
			return nil, err
		}
		rr.Snap = sn
		if rr.Snap.Pending == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	var hist struct {
		Samples []struct {
			CPUUtil float64 `json:"cpu_util"`
		} `json:"samples"`
	}
	if err := getJSON(get, base+"/v1/metrics/history", &hist); err != nil {
		return nil, err
	}
	var utils []float64
	for _, s := range hist.Samples {
		utils = append(utils, s.CPUUtil)
	}
	rr.CPUUtil = mean(utils)
	resp, err := get.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	rr.Hists, err = promHistograms(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	rr.PeakRSSMB = peakRSSMB(d.cmd.Process.Pid)
	return rr, nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// daemonArgs are the measured daemon's flags. lifecycleSample 0 turns
// every recorder off; 1 records every pod's lifecycle.
func daemonArgs(in *serviceInputs, dataDir string, seed int64, speedup float64, lifecycleSample int) []string {
	args := []string{
		"-trace", in.tracePath,
		"-seed", strconv.FormatInt(seed, 10),
		"-workers", "2",
		"-data-dir", dataDir,
		"-quota", in.quotaPath,
		"-speedup", strconv.FormatFloat(speedup, 'f', 3, 64),
		"-trace-sample", "0",
	}
	if lifecycleSample > 0 {
		return append(args, "-lifecycle-sample", strconv.Itoa(lifecycleSample))
	}
	return append(args, "-lifecycle-buffer", "0")
}

// servicePhase boots a daemon on a fresh data dir, replays for budget,
// shuts it down gracefully and reboots it on the same dir to time and
// check recovery.
type servicePhase struct {
	rr        *replayResult
	recoverS  float64
	finalHash string
	recovHash string
}

func runServicePhase(o options, in *serviceInputs, sz sizes, name string, n int, speedup float64, lifecycle int, d *daemon, rec *spanRecorder) (*servicePhase, error) {
	dataDir := filepath.Join(in.dir, name)
	var err error
	if d == nil {
		os.RemoveAll(dataDir)
		d, _, err = startDaemon(o.Daemon, daemonArgs(in, dataDir, o.Seed, speedup, lifecycle), filepath.Join(in.dir, name+".log"))
		if err != nil {
			return nil, err
		}
	}
	defer d.kill()
	sp := &servicePhase{}
	sp.rr, err = replay(d, in, n, sz.ServiceRate, sz.ServiceSampleEvery, rec)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("graceful stop: %w", err)
	}
	sp.finalHash = d.stdoutLine("final_state_hash")
	d2, recov, err := startDaemon(o.Daemon, daemonArgs(in, dataDir, o.Seed, speedup, lifecycle), filepath.Join(in.dir, name+"-recover.log"))
	if err != nil {
		return nil, err
	}
	defer d2.kill()
	sp.recoverS = recov.Seconds()
	sp.recovHash = d2.stdoutLine("recovered_state_hash")
	if err := d2.stop(); err != nil {
		return nil, fmt.Errorf("graceful stop after recovery: %w", err)
	}
	return sp, nil
}

// runService runs the durable HTTP service workload and returns the
// data dir (for the filesystem fingerprint).
func runService(r *report, o options, sz sizes, rec *spanRecorder) (string, error) {
	in, err := prepareService(o, sz)
	if err != nil {
		return "", err
	}
	r.set("trace.generate_s", in.genS)
	speedup := sz.ServiceRate * float64(in.horizon) / float64(len(in.pods))
	budget := o.Seconds
	if o.Traced {
		budget /= 2
	}
	n := int(sz.ServiceRate * budget)
	if n > len(in.pods) {
		n = len(in.pods)
	}
	r.Details["pods_replayed"] = n
	r.Details["speedup"] = speedup

	// Set-up: boot the daemon several times on fresh dirs; the last boot
	// is the one measured.
	var boots []float64
	var d *daemon
	for setupStart := time.Now(); d == nil; {
		dir := filepath.Join(in.dir, "e2e")
		os.RemoveAll(dir)
		dd, ready, err := startDaemon(o.Daemon, daemonArgs(in, dir, o.Seed, speedup, 0), filepath.Join(in.dir, "e2e.log"))
		if err != nil {
			return "", err
		}
		boots = append(boots, ready.Seconds())
		if needSetupRep(sz, len(boots), setupStart) {
			if err := dd.stop(); err != nil {
				return "", err
			}
			continue
		}
		d = dd
	}
	r.set("unischedd.ready_s", median(boots))
	r.set("setup_s", in.genS+median(boots))

	ph, err := runServicePhase(o, in, sz, "e2e", n, speedup, 0, d, nil)
	if err != nil {
		return "", err
	}
	rr := ph.rr
	checkService(r, ph, n)
	setServiceMetrics(r, rr)
	r.set("journal.recover_s", ph.recoverS)

	fs := serviceFailures(rr.Non202, rr.Transport, rr.Snap.States, rr.Snap.Lost())
	r.Attempted = int64(n)
	if o.Traced {
		tp, err := runServicePhase(o, in, sz, "traced", n, speedup, 1, nil, rec)
		if err != nil {
			return "", err
		}
		checkService(r, tp, n)
		h := tp.rr.Hists
		var lc layerCounters
		lc.QueueWait = h["unisched_stage_queue_wait_seconds"]
		lc.E2E = h["unisched_pod_e2e_seconds"]
		lc.Sched = h["unisched_stage_sched_seconds"]
		lc.Commit = h["unisched_stage_commit_seconds"]
		lc.Fsync = h["unisched_stage_fsync_wait_seconds"]
		lc.setTracedLayers(r)
		traced := summarize(tp.rr.PlacedMs, 0.99)
		r.set("obs.tracing_overhead_frac", ratio(traced.P50, r.Values["placed_p50_ms"])-1)
		r.Attempted += int64(n)
		fs = addFailures(fs, serviceFailures(tp.rr.Non202, tp.rr.Transport, tp.rr.Snap.States, tp.rr.Snap.Lost()))
	}
	r.Failed = fs.total()
	r.set("failed_frac", ratio(float64(r.Failed), float64(r.Attempted)))
	r.Details["failures"] = fs.asMap()
	return filepath.Join(in.dir, "e2e"), nil
}

// checkService applies the service workload's correctness checks.
func checkService(r *report, ph *servicePhase, n int) {
	sn := ph.rr.Snap
	if l := sn.Lost(); l != 0 {
		r.fail("daemon lost %d submissions: submitted %d != sum of states %v", l, sn.Submitted, sn.States)
	}
	if sn.Submitted+ph.rr.Transport > int64(n) {
		r.fail("daemon counted %d submissions for %d POSTs", sn.Submitted, n)
	}
	if ph.finalHash == "" || ph.finalHash != ph.recovHash {
		r.fail("recovery: final_state_hash %q != recovered_state_hash %q", ph.finalHash, ph.recovHash)
	}
	if !(ph.rr.CPUUtil > 0 && ph.rr.CPUUtil <= 1) {
		r.fail("cpu_util_mean %.4f outside (0, 1]", ph.rr.CPUUtil)
	}
	if ph.rr.Unresolved > 0 {
		r.note("%d sampled pods were not seen placed within 10s of their due time", ph.rr.Unresolved)
	}
}

// setServiceMetrics reports the end-to-end and per-layer figures of the
// untraced replay.
func setServiceMetrics(r *report, rr *replayResult) {
	lat := make([]float64, len(rr.Samples))
	for i, s := range rr.Samples {
		lat[i] = ms(s.Latency())
	}
	sub := summarize(lat, 0.99)
	pl := summarize(append([]float64(nil), rr.PlacedMs...), 0.99)
	r.set("submit_p50_ms", sub.P50)
	r.set("submit_p99_ms", sub.Tail)
	r.set("placed_p50_ms", pl.P50)
	r.set("placed_p99_ms", pl.Tail)
	r.Details["submit_latency"] = sub
	r.Details["placed_latency"] = pl
	r.Details["placed_after_retry"] = rr.Retried
	if sub.TailQ < 0.99 || pl.TailQ < 0.99 {
		r.note("latency tail reported at p%.1f (placed samples %d, POSTs %d)", 100*min(sub.TailQ, pl.TailQ), pl.N, sub.N)
	}
	lag := summarize(generatorLag(rr.Samples), 0.99)
	r.set("loadgen.late_ms_p99", lag.Tail)
	r.set("loadgen.late_ms_max", lag.Max)
	if lag.Tail > maxGeneratorLagMs {
		r.Invalid = fmt.Sprintf("open-loop generator lag p%.1f %.2fms exceeds %.1fms", 100*lag.TailQ, lag.Tail, maxGeneratorLagMs)
	}

	sn := rr.Snap
	wall := rr.Wall.Seconds()
	r.set("placements_per_s", float64(sn.Placed)/wall)
	r.set("cpu_util_mean", rr.CPUUtil)
	r.set("peak_rss_mb", rr.PeakRSSMB)
	r.set("unischedd.get_pod_ms_p50", summarize(rr.GetMs, 0.5).P50)
	r.set("quota.shed_frac", ratio(float64(sn.QuotaShed), float64(sn.Submitted)))

	var lc layerCounters
	lc.add(sysSnap{Placed: sn.Placed, Submitted: sn.Submitted, Engines: []engine.Snapshot{sn}})
	lc.setEngineLayers(r)
	if j := sn.Journal; j != nil {
		r.set("journal.records_per_placement", ratio(float64(j.Records), float64(sn.Placed)))
		r.set("journal.bytes_per_placement", ratio(float64(j.Bytes), float64(sn.Placed)))
		r.set("journal.fsyncs_per_s", float64(j.Fsyncs)/sn.WallSeconds)
		r.set("journal.fsync_ms_mean", j.FsyncMeanMs)
		r.set("journal.fsync_ms_p99", j.FsyncP99Ms)
	} else {
		r.fail("daemon reported no journal: durability is off")
	}
}
