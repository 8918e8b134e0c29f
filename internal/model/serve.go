package model

import (
	"math"
	"time"
)

// serve.go models the query tier (ROADMAP item 5): what one k-mer probe
// against a memory-mapped lookup costs, and what sustained QPS a daemon
// can serve at a given concurrency. A probe is three binary searches
// (shard first-keys, fence pointers, one in-block run), so its cost grows
// with the key count only through the combined search depth — the model
// scales the calibrated probe rate (measured at the reference 2^20 keys)
// by relative depth rather than assuming constant time.

// refProbeKeys is the key count the LookupProbesPerSec calibration is
// measured at.
const refProbeKeys = 1 << 20

// probeDepth is the comparison count of one lookup: log2 of the key space
// plus the fixed in-block tail (a 256-key block is 8 more halvings, landing
// in the same page).
func probeDepth(keys uint64) float64 {
	if keys < 2 {
		return 1
	}
	return math.Log2(float64(keys))
}

// PredictQuerySeconds estimates the service time of one POST /query batch
// of n k-mer probes against a lookup holding keys distinct k-mers,
// excluding queueing: per-probe search cost at depth-scaled calibration
// rate, plus two latency constants for dispatch and response assembly.
func PredictQuerySeconds(cal Calibration, keys uint64, batch int) time.Duration {
	if batch <= 0 || cal.LookupProbesPerSec <= 0 {
		return 0
	}
	perProbe := probeDepth(keys) / probeDepth(refProbeKeys) / cal.LookupProbesPerSec
	sec := float64(batch)*perProbe + 2*cal.Latency.Seconds()
	return time.Duration(sec * float64(time.Second))
}

// PredictServeQPS estimates sustained closed-loop requests/s at concurrency
// conc: each in-flight request occupies one worker for its service time —
// the tier answers a request on its own handler goroutine in one probe
// pass, so this is how the server runs too — and the probe work itself
// cannot exceed the machine's effective parallelism (CoreCap, the same
// memory-bandwidth ceiling the pipeline kernels hit). It prices probes
// only; request decode and response encode are not modeled.
func PredictServeQPS(cal Calibration, conc int, keys uint64, batch int) float64 {
	if conc <= 0 {
		return 0
	}
	per := PredictQuerySeconds(cal, keys, batch).Seconds()
	if per <= 0 {
		return 0
	}
	eff := float64(conc)
	if cal.CoreCap > 0 && eff > float64(cal.CoreCap) {
		eff = float64(cal.CoreCap)
	}
	return eff / per
}
