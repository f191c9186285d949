// Command karl-shard splits a saved engine into per-shard engine files
// for sharded serving, and inspects the provenance of shard files.
//
// Usage:
//
//	karl-shard -split engine.karl -n 4 -out shards/          # hash partition
//	karl-shard -split engine.karl -n 4 -partition kd -out shards/
//	karl-shard -inspect shards/shard-2.karl
//
// -split writes shard-<i>.karl engine files (same persisted format as the
// source, loadable by karl-serve -model) and logs each shard's cardinality
// and weight masses. Points are placed by the cluster manifest's routing
// (Engine.Shard): under hash, shard-<i> holds exactly the points a
// coordinator founded over the files in order routes to its member i+1.
// Every shard file carries its provenance (index i of n, strategy, source
// cardinality), so -inspect can identify a stray file.
// -inspect describes any saved engine: shape, kernel, masses, and the shard
// or coreset provenance it records.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"karl"
	"karl/internal/shard"
)

func main() {
	var (
		split     = flag.String("split", "", "saved engine file to split into shards")
		n         = flag.Int("n", 4, "number of shards for -split")
		partition = flag.String("partition", "hash", "partition strategy for -split: hash or kd")
		out       = flag.String("out", ".", "output directory for -split")
		inspect   = flag.String("inspect", "", "shard (or any saved) engine file to describe")
	)
	flag.Parse()

	switch {
	case (*split != "") == (*inspect != ""):
		fmt.Fprintln(os.Stderr, "karl-shard: need exactly one of -split or -inspect")
		flag.Usage()
		os.Exit(2)
	case *split != "":
		if err := runSplit(*split, *out, *partition, *n); err != nil {
			log.Fatalf("karl-shard: %v", err)
		}
	default:
		if err := runInspect(*inspect); err != nil {
			log.Fatalf("karl-shard: %v", err)
		}
	}
}

func runSplit(src, outDir, partition string, n int) error {
	kind, err := shard.ParseKind(partition)
	if err != nil {
		return err
	}
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	eng, err := karl.ReadEngine(f)
	f.Close()
	if err != nil {
		return err
	}
	shards, err := eng.Shard(n, kind)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for i, se := range shards {
		path := filepath.Join(outDir, fmt.Sprintf("shard-%d.karl", i))
		sf, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := se.WriteTo(sf); err != nil {
			sf.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		if err := sf.Close(); err != nil {
			return err
		}
		wpos, wneg := se.WeightMass()
		log.Printf("wrote %s: %d points, W⁺=%.6g W⁻=%.6g", path, se.Len(), wpos, wneg)
	}
	log.Printf("%s partition, %d points over %d shards", kind, eng.Len(), n)
	return nil
}

func runInspect(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	eng, err := karl.ReadEngine(f)
	f.Close()
	if err != nil {
		return err
	}
	k := eng.Kernel()
	wpos, wneg := eng.WeightMass()
	fmt.Printf("%s: %d points, %d dims, %v kernel (γ=%v), W⁺=%.6g W⁻=%.6g\n",
		path, eng.Len(), eng.Dims(), k.Kind, k.Gamma, wpos, wneg)
	if prov, ok := eng.ShardInfo(); ok {
		fmt.Printf("  shard %d of %d (%s partition) from a %d-point dataset\n",
			prov.Index, prov.Of, prov.Partition, prov.SourceLen)
	} else {
		fmt.Println("  not a shard: no partition provenance recorded")
	}
	if sk, ok := eng.SketchInfo(); ok {
		fmt.Printf("  %s coreset of %d source points (total weight %g), ε = %g, reduction %.1fx\n",
			sk.Method, sk.SourceLen, sk.SourceWeight, sk.Eps, float64(sk.SourceLen)/float64(sk.Len))
		switch sk.Basis {
		case karl.SketchBasisHoeffding:
			fmt.Printf("  basis: hoeffding (per-query probability ≥ 1−δ, δ = %g)\n", sk.Delta)
		case karl.SketchBasisExact:
			fmt.Println("  basis: exact (identity sketch, zero error)")
		case karl.SketchBasisEmpirical:
			fmt.Println("  basis: empirical (validation-backed, not a theorem)")
		default:
			fmt.Println("  basis: unknown (file predates basis recording)")
		}
	}
	return nil
}
