package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"unisched/internal/cluster"
	"unisched/internal/core"
	"unisched/internal/engine"
	"unisched/internal/federation"
	"unisched/internal/obs"
	"unisched/internal/profiler"
	"unisched/internal/sched"
	"unisched/internal/sim"
	"unisched/internal/trace"
)

// system is what an in-process workload drives: a single engine or a
// federation coordinator, through their public API only.
type system interface {
	Submit(p *trace.Pod) error
	Start()
	Drain(timeout time.Duration) bool
	Stop()
	PodStatus(id int) (engine.PodStatus, bool)
	// snap reads the settled system's public counters.
	snap() sysSnap
}

// sysSnap is the normalized view of a settled system.
type sysSnap struct {
	Submitted int64
	Placed    int64
	States    map[string]int64
	Lost      int64
	Failures  failures
	// CPUUtil is the mean of Series().CPUUtilAvg over the horizon,
	// averaged across partitions in a federation.
	CPUUtil float64
	Engines []engine.Snapshot
	// Lifecycles are the engines' recorders; Route the coordinator's
	// (nil outside a federation). All nil in untraced rounds.
	Lifecycles []*obs.Lifecycle
	Route      *obs.Lifecycle
	Spills     int64
	FedShed    int64
}

type engineSys struct{ *engine.Engine }

func (s engineSys) snap() sysSnap {
	sn := s.Snapshot()
	return sysSnap{
		Submitted:  sn.Submitted,
		Placed:     sn.Placed,
		States:     sn.States,
		Lost:       sn.Lost(),
		Failures:   fromStates(sn.States, sn.Lost()),
		CPUUtil:    mean(s.Series().CPUUtilAvg),
		Engines:    []engine.Snapshot{sn},
		Lifecycles: []*obs.Lifecycle{s.Lifecycle()},
	}
}

type fedSys struct{ *federation.Coordinator }

func (s fedSys) snap() sysSnap {
	sn := s.Snapshot()
	out := sysSnap{
		Submitted: sn.Submitted,
		Placed:    sn.Placed,
		States:    sn.States,
		Lost:      sn.Lost(),
		Failures:  federationFailures(sn.States, sn.Lost(), sn.FedShed),
		Engines:   sn.Partitions,
		Route:     s.Lifecycle(),
		Spills:    sn.Spills,
		FedShed:   sn.FedShed,
	}
	var utils []float64
	for _, b := range s.Partitions() {
		if p, ok := b.(*federation.Partition); ok {
			utils = append(utils, mean(p.Engine().Series().CPUUtilAvg))
			out.Lifecycles = append(out.Lifecycles, p.Engine().Lifecycle())
		}
	}
	out.CPUUtil = mean(utils)
	return out
}

// inputs is one workload's generated input plus how to build a fresh
// system over it. newSystem is called once per round: every round starts
// from an empty cluster.
type inputs struct {
	pods      []*trace.Pod
	genS      float64 // trace generation
	trainS    float64 // Optum's offline profiling and training (0 otherwise)
	newSystem func(traced bool) (system, error)
	// placeAll makes any pod left unplaced a correctness failure.
	placeAll bool
}

// lifecycleConfig turns the program's own lifecycle recorder on for a
// traced round: every pod's timeline plus a flight ring.
func lifecycleConfig(cfg engine.Config, traced bool) engine.Config {
	if traced {
		cfg.LifecycleEvery = 1
		cfg.LifecycleBuffer = 4096
	}
	return cfg
}

// mixedTrace builds a workload from parts independent trace.DefaultConfig
// traces, seeded from seed, each over nodes hosts for hours, cut to its
// first podsEach pods (0 keeps all) and with its fleet widened widen
// times. The parts share nothing: their apps, hosts and pods are
// renumbered into one fleet and one submission order. One generated
// trace draws a single app catalogue with heavy-tailed job sizes, so how
// much work it makes swings widely from seed to seed; a mix of several
// catalogues keeps that swing small enough to see a change in the
// program through it.
func mixedTrace(seed int64, parts, nodes, hours, podsEach, widen int) (*trace.Workload, error) {
	mixed := &trace.Workload{Horizon: int64(hours) * 3600, Seed: seed}
	for k := 0; k < parts; k++ {
		cfg := trace.DefaultConfig()
		cfg.Seed = seed*1000 + int64(k)
		cfg.NumNodes = nodes
		cfg.Horizon = int64(hours) * 3600
		w, err := trace.Generate(cfg)
		if err != nil {
			return nil, err
		}
		widenFleet(w, widen)
		pods := w.Pods
		if podsEach > 0 && len(pods) > podsEach {
			pods = pods[:podsEach]
		}
		prefix := fmt.Sprintf("p%d-", k)
		for _, a := range w.Apps {
			a.ID = prefix + a.ID
			mixed.Apps = append(mixed.Apps, a)
		}
		for _, p := range pods {
			p.AppID = prefix + p.AppID
			mixed.Pods = append(mixed.Pods, p)
		}
		for _, n := range w.Nodes {
			n.ID = len(mixed.Nodes)
			mixed.Nodes = append(mixed.Nodes, n)
		}
	}
	sort.SliceStable(mixed.Pods, func(i, j int) bool { return mixed.Pods[i].Submit < mixed.Pods[j].Submit })
	for i, p := range mixed.Pods {
		p.ID = i
		if err := mixed.LinkPod(p); err != nil {
			return nil, err
		}
	}
	if err := mixed.Validate(); err != nil {
		return nil, fmt.Errorf("mixed trace: %w", err)
	}
	return mixed, nil
}

// prepareOptum generates the Optum backlog workload (a mixed trace with
// widened fleets, so pods wait for capacity only briefly), runs Optum's
// offline profiling pass under the production baseline (as unischedd
// -scheduler optum does at boot), and builds a two-worker engine sharing
// the cluster with the horizon set. On the traces' own fleets the backlog
// waits ticks for capacity, and how long depends so much on the seed
// that run-to-run spread swamps any change.
func prepareOptum(seed int64, sz sizes) (*inputs, error) {
	t0 := time.Now()
	w, err := mixedTrace(seed, sz.OptumParts, sz.OptumNodes, sz.OptumHours, sz.OptumPods, sz.OptumWiden)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	col := profiler.NewCollector(seed)
	warm := cluster.New(w.Nodes, cluster.DefaultPhysics())
	sim.Run(w, warm, sched.NewAlibabaLike(warm, seed), sim.Config{Collector: col})
	models, err := col.TrainInterference(profiler.DefaultFactory(), 0.25)
	if err != nil {
		return nil, fmt.Errorf("train interference models: %w", err)
	}
	prof := core.Profiles{ERO: col.ERO(), Stats: col.Stats(), Models: models}
	t2 := time.Now()
	factory := func(c *cluster.Cluster, worker int, s int64) sched.Scheduler {
		return core.New(c, prof, core.DefaultOptions(), s)
	}
	return &inputs{
		pods:   w.Pods,
		genS:   t1.Sub(t0).Seconds(),
		trainS: t2.Sub(t1).Seconds(),
		newSystem: func(traced bool) (system, error) {
			c := cluster.New(w.Nodes, cluster.DefaultPhysics())
			e := engine.New(c, factory, lifecycleConfig(engine.Config{
				Workers:  2,
				QueueCap: len(w.Pods) + 1,
				Horizon:  w.Horizon,
				Seed:     seed,
			}, traced))
			return engineSys{e}, nil
		},
	}, nil
}

// widenFleet repeats the workload's nodes k times, renumbered, so each
// node group keeps its share of the fleet.
func widenFleet(w *trace.Workload, k int) {
	orig := w.Nodes
	w.Nodes = nil
	for i := 0; i < k; i++ {
		for _, n := range orig {
			c := *n
			c.ID = len(w.Nodes)
			w.Nodes = append(w.Nodes, &c)
		}
	}
}

// fleetRequests are the burst's CPU (and memory) requests on unit nodes.
var fleetRequests = []float64{0.1, 0.2, 0.3, 0.45}

// genFleet builds a uniform fleet of unit nodes and a burst of
// latency-sensitive pods with mixed requests, drawn from seed, whose
// requests sum to about fill of the fleet's CPU.
func genFleet(seed int64, nodes int, fill float64, horizonTicks int) *trace.Workload {
	app := &trace.App{
		ID: "svc", SLO: trace.SLOLS,
		Request: trace.Resources{CPU: 0.2, Mem: 0.2},
		Limit:   trace.Resources{CPU: 0.2, Mem: 0.2},
		MemUtil: 0.5, CPUBaseUtil: 0.3, Affinity: -1,
	}
	w := &trace.Workload{Apps: []*trace.App{app}, Horizon: int64(horizonTicks) * trace.SampleInterval, Seed: seed}
	for i := 0; i < nodes; i++ {
		w.Nodes = append(w.Nodes, &trace.Node{ID: i, Capacity: trace.Resources{CPU: 1, Mem: 1}})
	}
	rng := rand.New(rand.NewSource(seed))
	budget := fill * float64(nodes)
	for sum := 0.0; ; {
		r := fleetRequests[rng.Intn(len(fleetRequests))]
		if sum+r > budget {
			break
		}
		sum += r
		p := &trace.Pod{
			ID: len(w.Pods), AppID: app.ID, SLO: app.SLO,
			Request:  trace.Resources{CPU: r, Mem: r},
			Limit:    trace.Resources{CPU: r, Mem: r},
			CPUScale: 1, MemScale: 1,
		}
		w.Pods = append(w.Pods, p)
	}
	for _, p := range w.Pods {
		if err := w.LinkPod(p); err != nil {
			panic(err) // the app above always resolves
		}
	}
	return w
}

func alibabaFactory(c *cluster.Cluster, worker int, seed int64) sched.Scheduler {
	return sched.NewAlibabaLike(c, seed)
}

// prepareFleet generates the fleet burst and builds either one two-worker
// engine sharing the whole fleet or a two-partition federation with one
// worker per partition, over identical inputs.
func prepareFleet(seed int64, sz sizes, federated bool) (*inputs, error) {
	t0 := time.Now()
	w := genFleet(seed, sz.FleetNodes, sz.FleetFill, sz.FleetHorizonTicks)
	genS := time.Since(t0).Seconds()
	in := &inputs{pods: w.Pods, genS: genS, placeAll: !federated}
	if !federated {
		in.newSystem = func(traced bool) (system, error) {
			c := cluster.New(w.Nodes, cluster.DefaultPhysics())
			e := engine.New(c, alibabaFactory, lifecycleConfig(engine.Config{
				Workers:  2,
				Shards:   16,
				QueueCap: len(w.Pods) + 1,
				Horizon:  w.Horizon,
				Seed:     seed,
			}, traced))
			return engineSys{e}, nil
		}
		return in, nil
	}
	in.newSystem = func(traced bool) (system, error) {
		co, err := federation.New(w.Nodes, alibabaFactory, federation.Config{
			Partitions: 2,
			Engine: lifecycleConfig(engine.Config{
				Workers:  1,
				Shards:   16,
				QueueCap: len(w.Pods) + 1,
				Horizon:  w.Horizon,
				Seed:     seed,
			}, traced),
		})
		if err != nil {
			return nil, err
		}
		return fedSys{co}, nil
	}
	return in, nil
}

// roundResult is one round: submit the whole input, start, drain.
type roundResult struct {
	Wall      time.Duration // first Submit until Drain settled
	SubmitUs  []float64     // every Submit call
	PlacedMs  []float64     // sampled pods, from their Submit to observed placed
	Snap      sysSnap
	Attempted int64
}

// runRound submits every pod as a backlog before starting the system, so
// all of it is queued at virtual t=0, then starts it and drains it. A
// poller reads PodStatus of every stride-th pod to time when it was
// placed. rec, when non-nil, receives a span around every call.
//
// Queuing first is deliberate. With a horizon set, a started engine ticks
// whenever its queue is empty, so it may tick over an empty fleet before
// the first Submit; and a started federation routes a burst on digests
// that change under it. Both made cpu_util_mean and the latencies vary
// two to three times more from run to run.
func runRound(sys system, pods []*trace.Pod, stride int, rec *spanRecorder) (roundResult, error) {
	if stride < 1 {
		stride = 1
	}
	var rr roundResult
	rr.SubmitUs = make([]float64, 0, len(pods))
	type sampled struct {
		id  int
		due time.Time
	}
	samples := make([]sampled, 0, len(pods)/stride+1)
	roundSpan := rec.reserve()
	t0 := time.Now()
	for i, p := range pods {
		s := time.Now()
		err := sys.Submit(p)
		e := time.Now()
		rr.SubmitUs = append(rr.SubmitUs, us(e.Sub(s)))
		rec.add("Submit", roundSpan, int64(p.ID), s, e)
		if err != nil && !errors.Is(err, engine.ErrQueueFull) {
			return rr, fmt.Errorf("submit pod %d: %w", p.ID, err)
		}
		if i%stride == 0 {
			samples = append(samples, sampled{p.ID, s})
		}
	}
	rr.Attempted = int64(len(pods))

	sys.Start()
	stop := make(chan struct{})
	placed := make(chan []float64, 1)
	go func() {
		pending := samples
		var out []float64
		sweep := func() {
			now := time.Now()
			kept := pending[:0]
			for _, s := range pending {
				st, ok := sys.PodStatus(s.id)
				if ok && (st.Phase == "placed" || st.Phase == "done") {
					out = append(out, ms(now.Sub(s.due)))
					continue
				}
				kept = append(kept, s)
			}
			pending = kept
		}
		for len(pending) > 0 {
			sweep()
			select {
			case <-stop:
				sweep()
				placed <- out
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
		<-stop
		placed <- out
	}()
	ds := time.Now()
	ok := sys.Drain(2 * time.Minute)
	de := time.Now()
	rec.add("Drain", roundSpan, 0, ds, de)
	close(stop)
	rr.PlacedMs = <-placed
	rr.Wall = de.Sub(t0)
	sys.Stop()
	rec.finish(roundSpan, "round", 0, t0, time.Now())
	if !ok {
		return rr, fmt.Errorf("system did not settle within 2m")
	}
	rr.Snap = sys.snap()
	return rr, nil
}

// layerCounters sums the programs' own counters over a phase's rounds.
type layerCounters struct {
	Placed, Submitted                    int64
	Decisions, Retries, Conflicts        int64
	Epochs, Steals                       int64
	SchedS, CommitS                      float64
	Visited, Pruned                      int64
	ScanUs, CandidatesUs                 float64
	SummaryHits, SummaryAll              int64
	Spills, FedShed                      int64
	QueueWait, E2E, Sched, Commit, Fsync bucketHist
	Route                                bucketHist
}

func exportHist(lc *obs.Lifecycle, stage string) bucketHist {
	h := lc.StageHistogram(stage)
	if h == nil {
		return bucketHist{}
	}
	b, c, s, n := h.Export()
	return bucketHist{Bounds: b, Cum: c, Sum: s, Count: n}
}

func (lc *layerCounters) add(sn sysSnap) {
	lc.Placed += sn.Placed
	lc.Submitted += sn.Submitted
	lc.Spills += sn.Spills
	lc.FedShed += sn.FedShed
	for _, e := range sn.Engines {
		lc.Retries += e.Retries
		lc.Conflicts += e.CommitConflicts
		lc.Epochs += e.EpochsPublished
		lc.Steals += e.Steals
		lc.SchedS += e.SchedSeconds
		lc.CommitS += e.CommitSeconds
		if p := e.Pipeline; p != nil {
			lc.Decisions += p.Decisions
			lc.Visited += p.VisitedNodes
			lc.Pruned += p.PrunedNodes
			lc.ScanUs += p.StageMicros["scan"]
			lc.CandidatesUs += p.StageMicros["candidates"]
			lc.SummaryHits += p.SummaryHits
			lc.SummaryAll += p.SummaryHits + p.SummaryAppends + p.SummaryRebuilds
		}
	}
	for _, l := range sn.Lifecycles {
		if l == nil {
			continue
		}
		lc.QueueWait.add(exportHist(l, obs.StageQueueWait))
		lc.E2E.add(exportHist(l, obs.StagePlaced))
		lc.Sched.add(exportHist(l, obs.StageSched))
		lc.Commit.add(exportHist(l, obs.StageCommit))
		lc.Fsync.add(exportHist(l, obs.StageFsyncWait))
	}
	if sn.Route != nil {
		lc.Route.add(exportHist(sn.Route, obs.StageRoute))
	}
}

// setEngineLayers reports the engine, pipeline and core counters.
func (lc *layerCounters) setEngineLayers(r *report) {
	placed := float64(lc.Placed)
	dec := float64(lc.Decisions)
	r.set("engine.retries_per_placement", ratio(float64(lc.Retries), placed))
	r.set("engine.decisions_per_placement", ratio(dec, placed))
	r.set("engine.sched_us_per_placement", ratio(lc.SchedS*1e6, placed))
	r.set("engine.commit_conflicts_per_placement", ratio(float64(lc.Conflicts), placed))
	r.set("engine.commit_us_per_placement", ratio(lc.CommitS*1e6, placed))
	r.set("engine.epochs_per_placement", ratio(float64(lc.Epochs), placed))
	r.set("engine.steals_per_placement", ratio(float64(lc.Steals), placed))
	r.set("pipeline.scan_us_per_decision", ratio(lc.ScanUs, dec))
	r.set("pipeline.candidates_us_per_decision", ratio(lc.CandidatesUs, dec))
	r.set("pipeline.nodes_visited_per_decision", ratio(float64(lc.Visited), dec))
	r.set("pipeline.nodes_pruned_per_decision", ratio(float64(lc.Pruned), dec))
	r.set("core.summary_hit_frac", ratio(float64(lc.SummaryHits), float64(lc.SummaryAll)))
}

// setTracedLayers reports the lifecycle-recorder figures of a traced
// phase. unattributed is e2e minus the sum of the means of the stages
// that lie inside it, over e2e; the fsync wait follows placement, so it
// is not one of them.
func (lc *layerCounters) setTracedLayers(r *report) {
	r.set("engine.queue_wait_ms_p50", 1000*lc.QueueWait.quantile(0.50))
	r.set("engine.queue_wait_ms_p99", 1000*lc.QueueWait.quantile(tailQuantile(int(lc.QueueWait.Count), 0.99)))
	r.set("engine.e2e_ms_p50", 1000*lc.E2E.quantile(0.50))
	stages := lc.QueueWait.mean() + lc.Sched.mean() + lc.Commit.mean() + lc.Route.mean()
	r.set("engine.unattributed_frac", ratio(lc.E2E.mean()-stages, lc.E2E.mean()))
	r.set("journal.fsync_wait_ms_p50", 1000*lc.Fsync.quantile(0.50))
	r.set("federation.route_us_p50", 1e6*lc.Route.quantile(0.50))
	r.Details["stage_means_ms"] = map[string]float64{
		"e2e": 1000 * lc.E2E.mean(), "queue_wait": 1000 * lc.QueueWait.mean(),
		"sched": 1000 * lc.Sched.mean(), "commit": 1000 * lc.Commit.mean(),
		"fsync_wait": 1000 * lc.Fsync.mean(), "route": 1000 * lc.Route.mean(),
	}
}

// phase is a series of rounds run back to back for a time budget.
type phase struct {
	Rounds int
	// Per-round figures; the phase reports their medians.
	PPS, SubmitP50, SubmitP99, PlacedP50, PlacedP99, CPUUtil []float64
	Counters                                                 layerCounters
	Failures                                                 failures
	Attempted                                                int64
}

// runPhase runs rounds until budget has elapsed, at least minRounds.
func runPhase(in *inputs, budget time.Duration, minRounds, latencySamples int, traced bool, rec *spanRecorder, r *report) (*phase, error) {
	ph := &phase{}
	stride := len(in.pods) / latencySamples
	start := time.Now()
	for ph.Rounds < minRounds || time.Since(start) < budget {
		sys, err := in.newSystem(traced)
		if err != nil {
			return nil, err
		}
		// Collect the previous round's garbage outside the timed region,
		// so every round starts from the same heap.
		runtime.GC()
		rr, err := runRound(sys, in.pods, stride, rec)
		if err != nil {
			return nil, err
		}
		ph.Rounds++
		sn := rr.Snap
		checkRound(r, in, rr)
		ph.PPS = append(ph.PPS, float64(sn.Placed)/rr.Wall.Seconds())
		sub := summarize(rr.SubmitUs, 0.99)
		pl := summarize(rr.PlacedMs, 0.99)
		ph.SubmitP50 = append(ph.SubmitP50, sub.P50/1000)
		ph.SubmitP99 = append(ph.SubmitP99, sub.Tail/1000)
		ph.PlacedP50 = append(ph.PlacedP50, pl.P50)
		ph.PlacedP99 = append(ph.PlacedP99, pl.Tail)
		ph.CPUUtil = append(ph.CPUUtil, sn.CPUUtil)
		ph.Counters.add(sn)
		ph.Failures = addFailures(ph.Failures, sn.Failures)
		ph.Attempted += rr.Attempted
		if pl.TailQ < 0.99 || sub.TailQ < 0.99 {
			r.note("round %d: latency tail reported at p%.1f (placed samples %d, submits %d)",
				ph.Rounds, 100*min(pl.TailQ, sub.TailQ), pl.N, sub.N)
		}
	}
	return ph, nil
}

func addFailures(a, b failures) failures {
	a.Shed += b.Shed
	a.Exhausted += b.Exhausted
	a.Rejected += b.Rejected
	a.FedShed += b.FedShed
	a.Non202 += b.Non202
	a.Transport += b.Transport
	a.Lost += b.Lost
	a.Pending += b.Pending
	return a
}

// checkRound applies the correctness checks every in-process round must
// pass.
func checkRound(r *report, in *inputs, rr roundResult) {
	sn := rr.Snap
	if sn.Lost != 0 {
		r.fail("lost %d submissions (merged snapshot)", sn.Lost)
	}
	for i, e := range sn.Engines {
		if l := e.Lost(); l != 0 {
			r.fail("engine %d lost %d submissions", i, l)
		}
	}
	if sn.Submitted != rr.Attempted {
		r.fail("system counted %d submissions, benchmark made %d", sn.Submitted, rr.Attempted)
	}
	if got := reachedPlaced(sn.States) + sn.Failures.total(); got != rr.Attempted {
		r.fail("accounting: placed %d + failed %d != attempted %d",
			reachedPlaced(sn.States), sn.Failures.total(), rr.Attempted)
	}
	if in.placeAll && reachedPlaced(sn.States) != rr.Attempted {
		r.fail("placed %d of %d pods, want all (states %v)", reachedPlaced(sn.States), rr.Attempted, sn.States)
	}
	if !(sn.CPUUtil > 0 && sn.CPUUtil <= 1) {
		r.fail("cpu_util_mean %.4f outside (0, 1]", sn.CPUUtil)
	}
}

// needSetupRep reports whether set-up should be repeated once more: at
// least SetupReps times and for at least SetupMin in total (a cheap
// set-up is noisy), at most maxSetupReps times.
func needSetupRep(sz sizes, done int, start time.Time) bool {
	const maxSetupReps = 15
	if done < sz.SetupReps {
		return true
	}
	return done < maxSetupReps && time.Since(start) < sz.SetupMin
}

// runInproc runs one in-process workload. prepare builds the inputs and
// is repeated (needSetupRep) for the setup figure, a median; rounds then
// reuse the last inputs. With traced set, half the budget runs untraced (the
// per-layer counters and the overhead baseline) and half with the
// lifecycle recorder on.
func runInproc(r *report, prepare func() (*inputs, error), seconds float64, traced bool, sz sizes, rec *spanRecorder) error {
	var in *inputs
	var setup, gen, train []float64
	for setupStart := time.Now(); needSetupRep(sz, len(setup), setupStart); {
		runtime.GC()
		t0 := time.Now()
		var err error
		in, err = prepare()
		if err != nil {
			return err
		}
		if _, err := in.newSystem(false); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		gen = append(gen, in.genS)
		train = append(train, in.trainS)
	}
	r.set("setup_s", median(setup))
	r.set("trace.generate_s", median(gen))
	r.set("profiler.train_s", median(train))
	r.Details["pods"] = len(in.pods)

	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		budget /= 2
	}
	base, err := runPhase(in, budget, sz.MinRounds, sz.LatencySamples, false, nil, r)
	if err != nil {
		return err
	}
	r.set("placements_per_s", median(base.PPS))
	r.set("submit_p50_ms", median(base.SubmitP50))
	r.set("submit_p99_ms", median(base.SubmitP99))
	r.set("placed_p50_ms", median(base.PlacedP50))
	r.set("placed_p99_ms", median(base.PlacedP99))
	r.set("cpu_util_mean", median(base.CPUUtil))
	r.Details["rounds"] = base.Rounds
	r.Details["placements_per_s_rounds"] = base.PPS

	r.set("engine.submit_us_p50", 1000*median(base.SubmitP50))
	r.set("engine.submit_us_p99", 1000*median(base.SubmitP99))
	base.Counters.setEngineLayers(r)
	c := base.Counters
	r.set("federation.spills_per_pod", ratio(float64(c.Spills), float64(c.Submitted)))
	r.set("federation.shed_frac", ratio(float64(c.FedShed), float64(c.Submitted)))
	if c.FedShed > 0 {
		r.note("federation shed %d of %d pods (%.2f%%) after their spill budget",
			c.FedShed, c.Submitted, 100*ratio(float64(c.FedShed), float64(c.Submitted)))
	}
	r.Attempted = base.Attempted
	fs := base.Failures
	if traced {
		tr, err := runPhase(in, budget, sz.MinRounds, sz.LatencySamples, true, rec, r)
		if err != nil {
			return err
		}
		tr.Counters.setTracedLayers(r)
		r.set("obs.tracing_overhead_frac", 1-median(tr.PPS)/median(base.PPS))
		r.Attempted += tr.Attempted
		fs = addFailures(fs, tr.Failures)
		r.Details["traced_rounds"] = tr.Rounds
		if u := r.Values["engine.unattributed_frac"]; u > 0.1 {
			r.note("unattributed share of e2e is %.2f (> 0.1): the stage histograms do not cover the pods' waiting", u)
		}
	}
	r.Failed = fs.total()
	r.set("failed_frac", ratio(float64(r.Failed), float64(r.Attempted)))
	r.Details["failures"] = fs.asMap()
	return nil
}
