// Package cli is the karl command: one verb per tool, each a flag set and
// the body that runs once the flags parse. cmd/karl dispatches to Main and
// cmd/karl-serve runs the serve verb alone through Serve.
//
// Every verb follows one exit-code rule: 0 on success, 2 for a usage error
// (an unknown verb, an undefined or malformed flag, a flag another mode
// owns, a missing required flag), 1 for a failure at run time. Every
// message reads "karl <verb>: …".
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"karl/internal/dataset"
	"karl/internal/kde"
	"karl/internal/vec"
)

// A verb defines its flags on fs and returns the body that runs once they
// are parsed.
type verb struct {
	summary string
	define  func(fs *flag.FlagSet, e *env) func() error
}

var verbs = map[string]verb{
	"serve":   {"serve an engine, a follower or a cluster coordinator over HTTP/JSON", defineServe},
	"shard":   {"split a saved engine into shard files, or describe a saved engine", defineShard},
	"train":   {"train a 1-class or 2-class SVM and write its model", defineTrain},
	"tune":    {"rank every (index, leaf capacity) candidate on a synthetic workload", defineTune},
	"predict": {"classify vectors with a saved SVM model", definePredict},
	"kde":     {"render a kernel density surface over two dimensions (Figure 1)", defineKDE},
	"bench":   {"run the paper's experiments on synthetic stand-in datasets", defineBench},
}

// env is what a verb reads and writes besides its flags.
type env struct {
	stdin          io.Reader
	stdout, stderr io.Writer
	// self re-runs this binary as a serve process: "serve" under karl,
	// nothing under the karl-serve shim.
	self []string
}

// Main runs the karl command line args (without the program name) and
// returns its exit code.
func Main(args []string) int {
	e := &env{stdin: os.Stdin, stdout: os.Stdout, stderr: os.Stderr, self: []string{"serve"}}
	return e.main(args)
}

// Serve runs the serve verb with args as its flags: the karl-serve shim.
func Serve(args []string) int {
	e := &env{stdin: os.Stdin, stdout: os.Stdout, stderr: os.Stderr}
	return e.run("serve", args)
}

func (e *env) main(args []string) int {
	if len(args) == 0 || verbs[args[0]].define == nil {
		if len(args) > 0 {
			fmt.Fprintf(e.stderr, "karl: unknown verb %q\n", args[0])
		}
		fmt.Fprintln(e.stderr, "usage: karl <verb> [flags]; karl <verb> -h lists a verb's flags")
		names := make([]string, 0, len(verbs))
		for name := range verbs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(e.stderr, "  %-8s %s\n", name, verbs[name].summary)
		}
		return 2
	}
	return e.run(args[0], args[1:])
}

// run parses args against the verb's flags, runs it and maps the outcome
// onto the exit-code rule.
func (e *env) run(name string, args []string) int {
	fs := flag.NewFlagSet("karl "+name, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // Parse's complaints are reported below
	body := verbs[name].define(fs, e)
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		fmt.Fprintf(e.stderr, "usage: karl %s [flags]: %s\n", name, verbs[name].summary)
		fs.SetOutput(e.stderr)
		fs.PrintDefaults()
		return 0
	case err != nil:
		err = usageError{err}
	case fs.NArg() > 0:
		err = usagef("unexpected argument %q", fs.Arg(0))
	default:
		err = body()
	}
	if err == nil {
		return 0
	}
	fmt.Fprintf(e.stderr, "karl %s: %v\n", name, err)
	if errors.As(err, new(usageError)) {
		fmt.Fprintf(e.stderr, "karl %s -h lists its flags\n", name)
		return 2
	}
	return 1
}

// usageError marks an error as the caller's misuse (exit 2), not a failure
// at run time (exit 1).
type usageError struct{ error }

func usagef(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

// owners is the one flag-ownership check: a flag set on the command line
// that belongs to a mode not in effect is a usage error naming the owner,
// never silently ignored.
type owners struct {
	set   map[string]bool
	wrong []string
}

// ownership records the flags set on fs's command line.
func ownership(fs *flag.FlagSet) *owners {
	o := &owners{set: map[string]bool{}}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o
}

// only records every flag of names that is set as one that belongs to mode.
func (o *owners) only(mode string, names ...string) {
	for _, name := range names {
		if o.set[name] {
			o.wrong = append(o.wrong, fmt.Sprintf("-%s only applies to %s", name, mode))
		}
	}
}

func (o *owners) err() error {
	if len(o.wrong) == 0 {
		return nil
	}
	return usageError{errors.New(strings.Join(o.wrong, "; "))}
}

// gammaFlag defines the one kernel flag. Its default and what 0 means are
// the verb's.
func gammaFlag(fs *flag.FlagSet, def float64, zero string) *float64 {
	return fs.Float64("gamma", def, "Gaussian kernel gamma; 0 = "+zero)
}

// scottIfZero returns gamma, or Scott's rule over pts when gamma is 0.
func scottIfZero(gamma float64, pts *vec.Matrix) (float64, error) {
	if gamma > 0 {
		return gamma, nil
	}
	return kde.ScottGamma(pts)
}

// inFlag defines -in, the input of the verbs that read vectors.
func inFlag(fs *flag.FlagSet) *string {
	return fs.String("in", "", "input file of whitespace-separated vectors (default stdin)")
}

// readInput hands fn the file at path, or stdin when path is empty; an
// error fn returns names the input.
func (e *env) readInput(path string, fn func(io.Reader) error) error {
	r, name := e.stdin, "stdin"
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r, name = f, path
	}
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// readRows reads whitespace-separated vectors from the file at path, or
// from stdin when path is empty, and refuses an input holding none.
func (e *env) readRows(path string) (rows [][]float64, err error) {
	err = e.readInput(path, func(r io.Reader) error {
		if rows, err = dataset.ReadRows(r); err == nil && len(rows) == 0 {
			err = errors.New("no vectors")
		}
		return err
	})
	return rows, err
}

// syntheticFlags defines the generator flags tune and bench share: a
// synthetic stand-in dataset's size and seed.
func syntheticFlags(fs *flag.FlagSet) *dataset.Options {
	o := &dataset.Options{}
	fs.Float64Var(&o.Scale, "scale", 1.0/64, "dataset scale relative to the paper's sizes")
	fs.IntVar(&o.MaxN, "maxn", 20000, "cap on generated dataset cardinality")
	fs.IntVar(&o.Queries, "queries", 100, "sampled query count (paper: 10000)")
	fs.Int64Var(&o.Seed, "seed", 1, "generator seed")
	return o
}

// generate builds the synthetic stand-in dataset called name.
func generate(name string, opts dataset.Options) (*dataset.Dataset, error) {
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	return dataset.Generate(spec, opts)
}

// load opens the model file at path with read: karl.ReadEngine or
// karl.ReadSVM.
func load[M any](path string, read func(io.Reader) (M, error)) (M, error) {
	f, err := os.Open(path)
	if err != nil {
		var none M
		return none, err
	}
	defer f.Close()
	m, err := read(f)
	if err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// save writes m to path durably: the file is synced before it is closed,
// and a failed close is an error like any other.
func save(path string, m io.WriterTo) (n int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if n, err = m.WriteTo(f); err != nil {
		return n, fmt.Errorf("write %s: %w", path, err)
	}
	return n, f.Sync()
}
