package main

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// bucketHist is a cumulative latency histogram in the Prometheus layout
// the program exports, both in-process (obs.LatencyHist.Export) and over
// HTTP (/metrics): finite upper bounds in seconds, cumulative counts per
// bound, the total count and the sum in seconds. Histograms with equal
// bounds merge by adding.
type bucketHist struct {
	Bounds []float64
	Cum    []int64
	Sum    float64
	Count  int64
}

func (h *bucketHist) add(o bucketHist) {
	if len(h.Bounds) == 0 {
		h.Bounds = append([]float64(nil), o.Bounds...)
		h.Cum = make([]int64, len(o.Cum))
	}
	for i := range h.Cum {
		if i < len(o.Cum) {
			h.Cum[i] += o.Cum[i]
		}
	}
	h.Sum += o.Sum
	h.Count += o.Count
}

func (h bucketHist) mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// quantile returns the q-quantile in seconds with the program's own
// interpolation: linear in the first bucket, log-linear (each bucket is
// one doubling) in the others. Observations past the last finite bound
// report that bound.
func (h bucketHist) quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var prev int64
	for i, c := range h.Cum {
		n := c - prev
		if n > 0 && float64(c) >= rank {
			frac := math.Max(0, math.Min(1, (rank-float64(prev))/float64(n)))
			if i == 0 {
				return h.Bounds[0] * frac
			}
			lower := h.Bounds[i-1]
			return lower * math.Pow(h.Bounds[i]/lower, frac)
		}
		prev = c
	}
	return h.Bounds[len(h.Bounds)-1]
}

// promHistograms parses the histogram families of a Prometheus text
// exposition (unlabelled series only), keyed by family name.
func promHistograms(r io.Reader) (map[string]bucketHist, error) {
	out := map[string]bucketHist{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch {
		case strings.Contains(name, "_bucket{le=\""):
			fam, le, _ := strings.Cut(name, "_bucket{le=\"")
			le = strings.TrimSuffix(le, "\"}")
			h := out[fam]
			if le != "+Inf" {
				b, err := strconv.ParseFloat(le, 64)
				if err != nil {
					continue
				}
				h.Bounds = append(h.Bounds, b)
				h.Cum = append(h.Cum, int64(v))
			}
			out[fam] = h
		case strings.HasSuffix(name, "_sum"):
			fam := strings.TrimSuffix(name, "_sum")
			if h, ok := out[fam]; ok {
				h.Sum = v
				out[fam] = h
			}
		case strings.HasSuffix(name, "_count"):
			fam := strings.TrimSuffix(name, "_count")
			if h, ok := out[fam]; ok {
				h.Count = int64(v)
				out[fam] = h
			}
		}
	}
	return out, sc.Err()
}
