// Streaming outlier detection over a drifting baseline — the mutable
// half of the paper's network-intrusion scenario. Instead of a model
// trained once on frozen "normal" traffic, a segmented dynamic engine
// holds a sliding window of recent observations as a kernel density
// estimate: every new connection is screened against the current window
// (a threshold kernel aggregation query), then inserted so the baseline
// tracks drift. A TTL window expires stale observations at seal and
// compaction time, an exponential decay half-life down-weights older
// points so the density leans toward the freshest traffic, and labeled
// false positives can be deleted outright — tombstones subtract their
// mass exactly until compaction reclaims the rows.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"karl"
)

// connection synthesizes a feature vector of "network traffic" whose
// normal profile drifts over time: the cluster center slides, so a
// frozen baseline would decay into false positives.
func connection(rng *rand.Rand, center float64, attack bool) []float64 {
	v := make([]float64, 8)
	for j := range v {
		v[j] = center + rng.NormFloat64()*0.05
	}
	if attack {
		dim := rng.Intn(len(v))
		v[dim] += 0.5 + rng.Float64() // one feature goes far out of profile
	}
	return v
}

func main() {
	rng := rand.New(rand.NewSource(7))

	// The streaming baseline: a mutable KDE over a 10-minute window of
	// traffic, with a 3-minute half-life so the last few minutes dominate
	// the density. Insert-heavy workloads seal and compact off the query
	// path; neither screening nor ingest ever waits on a rebuild.
	baseline, err := karl.NewDynamic(karl.Gaussian(20),
		karl.WithTTL(10*time.Minute),
		karl.WithDecayHalfLife(3*time.Minute),
		karl.WithSealSize(512),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Seed with the first minutes of (normal) traffic.
	for i := 0; i < 2000; i++ {
		if err := baseline.Insert(connection(rng, 0.5, false), 1); err != nil {
			log.Fatal(err)
		}
	}

	// A connection is flagged when the window's density at its feature
	// vector falls below tau: too far from everything recently seen.
	// Threshold queries terminate on the paper's bound certificates, so
	// most decisions touch a handful of tree nodes.
	const tau = 25.0

	var flagged, attacks, caught int
	var falsePositives []uint64
	center := 0.5
	for i := 0; i < 4000; i++ {
		center += 0.0001 // the normal profile drifts
		attack := rng.Float64() < 0.02
		c := connection(rng, center, attack)
		if attack {
			attacks++
		}

		over, err := baseline.Threshold(c, tau)
		if err != nil {
			log.Fatal(err)
		}
		if !over { // low density: outlier
			flagged++
			if attack {
				caught++
			}
			// Attacks must not poison the baseline; suspicious points are
			// held out. (A real pipeline would insert them on acquittal.)
			continue
		}

		// Normal traffic joins the window and the baseline keeps drifting
		// with the stream. Remember some IDs to demonstrate deletion below.
		id, err := baseline.InsertID(c, 1)
		if err != nil {
			log.Fatal(err)
		}
		if i%500 == 0 {
			falsePositives = append(falsePositives, id)
		}
	}

	fmt.Printf("screened 4000 connections against a drifting baseline of %d points\n", baseline.Len())
	fmt.Printf("flagged %d (%d/%d attacks caught)\n", flagged, caught, attacks)

	// An analyst overturns some admissions: delete them. Sealed points
	// become tombstones whose kernel mass is subtracted exactly from every
	// query until compaction drops the rows for good.
	for _, id := range falsePositives {
		if err := baseline.Delete(id); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("retracted %d points (%d tombstones pending compaction)\n",
		len(falsePositives), baseline.Status().Tombstones)
	if err := baseline.Compact(); err != nil {
		log.Fatal(err)
	}
	st := baseline.Status()
	fmt.Printf("after compaction: %d points, %d tombstones, %d segments\n",
		st.Points, st.Tombstones, len(st.Segments))
}
