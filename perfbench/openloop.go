package main

import "time"

// clock is the time source of the open-loop generator; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// loopSample is one open-loop request: when it was due, when the
// generator actually sent it, and when its answer arrived.
type loopSample struct {
	Due, Start, End time.Time
	OK              bool
}

// Latency is the request's time from when it was due, not from when it
// was sent: a stalled request delays every request queued behind it on
// the connection, and that wait is charged to them too.
func (s loopSample) Latency() time.Duration { return s.End.Sub(s.Due) }

// openLoop sends n requests on one connection, request i due at
// start + i*interval whatever happened to earlier ones. send makes
// request i and reports whether it succeeded.
func openLoop(n int, start time.Time, interval time.Duration, clk clock, send func(i int) bool) []loopSample {
	out := make([]loopSample, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		s := loopSample{Due: due, Start: clk.Now()}
		s.OK = send(i)
		s.End = clk.Now()
		out = append(out, s)
	}
	return out
}

// generatorLag returns, per request, how late the generator itself sent
// it: the send time minus the later of its due time and the previous
// answer's arrival. Time spent waiting on the server is not lag; a lag
// is the generator oversleeping or being descheduled, which would make
// the offered load lower than the schedule says.
func generatorLag(samples []loopSample) []float64 {
	out := make([]float64, len(samples))
	var prevEnd time.Time
	for i, s := range samples {
		ready := s.Due
		if i > 0 && prevEnd.After(ready) {
			ready = prevEnd
		}
		if lag := s.Start.Sub(ready); lag > 0 {
			out[i] = ms(lag)
		}
		prevEnd = s.End
	}
	return out
}
