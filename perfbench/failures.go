package main

// failures counts, by kind, attempted submissions that never reached the
// placed state. failed_frac is their total over the attempted count.
type failures struct {
	Shed      int64 // shed by the engine: queue-full backpressure or the quota gate
	Exhausted int64 // abandoned after the displacement budget
	Rejected  int64 // fail-fast withdrawn and never re-placed
	FedShed   int64 // given up by the federation coordinator after its spill budget
	Non202    int64 // service answered anything but 202 Accepted
	Transport int64 // the request never got an HTTP answer
	Lost      int64 // submitted but in no engine state at all
	Pending   int64 // still queued or backing off when the run ended
}

func (f failures) total() int64 {
	return f.Shed + f.Exhausted + f.Rejected + f.FedShed + f.Non202 + f.Transport + f.Lost + f.Pending
}

// fromStates fills the engine-side kinds from a snapshot's per-phase
// record counts and its Lost() figure.
func fromStates(states map[string]int64, lost int64) failures {
	return failures{
		Shed:      states["shed"],
		Exhausted: states["exhausted"],
		Rejected:  states["rejected"],
		Pending:   states["queued"],
		Lost:      lost,
	}
}

// reachedPlaced counts records that were placed at some point: still
// placed, or done (a placed pod that completed or expired).
func reachedPlaced(states map[string]int64) int64 {
	return states["placed"] + states["done"]
}

// federationFailures splits a merged federation snapshot: the merged
// "shed" bucket already contains the coordinator's give-ups, so those
// move to FedShed instead of being counted twice.
func federationFailures(states map[string]int64, lost, fedShed int64) failures {
	f := fromStates(states, lost)
	f.Shed -= fedShed
	f.FedShed = fedShed
	return f
}

// serviceFailures merges the client's view with the daemon's. A refused
// POST (429 from the quota gate or a full queue) also leaves a shed record
// in the engine, so engine-side sheds are not counted again: the client's
// Non202 already holds them.
func serviceFailures(non202, transport int64, states map[string]int64, lost int64) failures {
	f := fromStates(states, lost)
	f.Shed = 0
	f.Non202 = non202
	f.Transport = transport
	return f
}

func (f failures) asMap() map[string]int64 {
	return map[string]int64{
		"shed": f.Shed, "exhausted": f.Exhausted, "rejected": f.Rejected,
		"federation_shed": f.FedShed, "non_202": f.Non202, "transport": f.Transport,
		"lost": f.Lost, "pending": f.Pending,
	}
}
