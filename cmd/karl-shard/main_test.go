package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"karl"
)

// TestSplitInspectRoundTrip drives the command's core paths: split a
// saved engine into shard files, reload every shard, and check the pieces
// sum back to the whole.
func TestSplitInspectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([][]float64, 300)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	eng, err := karl.Build(pts, karl.Gaussian(0.8))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "engine.karl")
	f, err := os.Create(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.WriteTo(f); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	f.Close()

	outDir := filepath.Join(dir, "shards")
	if err := runSplit(src, outDir, "kd", 4); err != nil {
		t.Fatalf("runSplit: %v", err)
	}

	files, err := filepath.Glob(filepath.Join(outDir, "*"))
	if err != nil || len(files) != 4 {
		t.Fatalf("split wrote %v (%v), want the four shard files and nothing else", files, err)
	}

	q := []float64{0.2, -0.4}
	want, _ := eng.Aggregate(q)
	var sum float64
	total := 0
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("shard-%d.karl", i)
		sf, err := os.Open(filepath.Join(outDir, name))
		if err != nil {
			t.Fatal(err)
		}
		se, err := karl.ReadEngine(sf)
		sf.Close()
		if err != nil {
			t.Fatalf("ReadEngine(%s): %v", name, err)
		}
		prov, ok := se.ShardInfo()
		if !ok || prov.Index != i || prov.Of != 4 || prov.SourceLen != 300 {
			t.Fatalf("shard %d provenance: ok=%v %+v", i, ok, prov)
		}
		total += se.Len()
		v, err := se.Aggregate(q)
		if err != nil {
			t.Fatalf("shard %d aggregate: %v", i, err)
		}
		sum += v

		if err := runInspect(filepath.Join(outDir, name)); err != nil {
			t.Fatalf("runInspect(%s): %v", name, err)
		}
	}
	if total != 300 {
		t.Fatalf("shards hold %d points, want 300", total)
	}
	if diff := sum - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("shard sum %v, want %v", sum, want)
	}
}

// TestSplitRejectsBadPartition covers the up-front argument check.
func TestSplitRejectsBadPartition(t *testing.T) {
	if err := runSplit("nonexistent.karl", t.TempDir(), "banana", 4); err == nil {
		t.Fatal("unknown partition strategy should fail")
	}
}
