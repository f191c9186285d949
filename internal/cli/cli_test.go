package cli

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runKarl runs a karl command line in process and returns its exit code
// and what it wrote to stderr.
func runKarl(args ...string) (int, string) {
	var stderr bytes.Buffer
	e := &env{stdin: strings.NewReader(""), stdout: io.Discard, stderr: &stderr, self: []string{"serve"}}
	return e.main(args), stderr.String()
}

// TestExitCodes pins the exit-code rule: for every verb one usage error
// exits 2 and one failure at run time exits 1, each message naming the
// verb.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"serve", "-coordinator", "-shards", "http://a:1", "-gamma", "2"}, 2},
		{[]string{"serve", "-model", missing}, 1},
		{[]string{"shard", "-n", "3"}, 2},
		{[]string{"shard", "-inspect", missing}, 1},
		{[]string{"train", "-mode", "3class"}, 2},
		{[]string{"train", "-in", missing}, 1},
		{[]string{"tune", "-method", "bogus"}, 2},
		{[]string{"tune", "-dataset", "no-such-dataset"}, 1},
		{[]string{"predict", "-values"}, 2},
		{[]string{"predict", "-model", missing}, 1},
		{[]string{"kde", "-format", "png"}, 2},
		{[]string{"kde", "-in", missing}, 1},
		{[]string{"bench", "-list", "-scale", "0.5"}, 2},
		{[]string{"bench", "-run", "fig1", "-maxn", "1"}, 1},
		// Usage errors every verb shares: an undefined flag (the tune
		// recipe that once documented -tau-mode), a malformed value and a
		// stray argument.
		{[]string{"tune", "-dataset", "home", "-tau-mode", "mu"}, 2},
		{[]string{"kde", "-res", "many"}, 2},
		{[]string{"bench", "-list", "fig1"}, 2},
		// Tuner flags out of range, once silently run as TKAQ or with the
		// default sample.
		{[]string{"tune", "-eps", "-0.5"}, 2},
		{[]string{"tune", "-eps", "NaN"}, 2},
		{[]string{"bench", "-run", "tab8", "-tunesample", "-5"}, 2},
	}
	for _, tc := range cases {
		code, stderr := runKarl(tc.args...)
		if code != tc.code {
			t.Errorf("karl %s: exit %d, want %d (stderr %q)", strings.Join(tc.args, " "), code, tc.code, stderr)
		}
		if prefix := "karl " + tc.args[0] + ": "; !strings.HasPrefix(stderr, prefix) {
			t.Errorf("karl %s: stderr %q does not start with %q", strings.Join(tc.args, " "), stderr, prefix)
		}
	}
	for _, args := range [][]string{nil, {"frobnicate"}, {"-h"}} {
		if code, stderr := runKarl(args...); code != 2 || !strings.Contains(stderr, "usage: karl <verb>") {
			t.Errorf("karl %v: exit %d, stderr %q; want 2 and the verb list", args, code, stderr)
		}
	}
	if code, stderr := runKarl("tune", "-h"); code != 0 || !strings.Contains(stderr, "-dataset") {
		t.Errorf("karl tune -h: exit %d, stderr %q; want 0 and the flag list", code, stderr)
	}
}

// TestModelWriteFailureNamesPath: a model write that cannot complete exits
// 1 and names the file, whether the directory refuses the file or the
// device refuses its bytes.
func TestModelWriteFailureNamesPath(t *testing.T) {
	t.Run("read-only directory", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("root writes into a read-only directory")
		}
		dir := filepath.Join(t.TempDir(), "ro")
		if err := os.Mkdir(dir, 0o500); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "model.karl")
		if code, stderr := runKarl("train", "-demo", "-out", path); code != 1 || !strings.Contains(stderr, path) {
			t.Fatalf("exit %d, stderr %q; want 1 naming %s", code, stderr, path)
		}
	})
	t.Run("full device", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("no /dev/full")
		}
		if code, stderr := runKarl("train", "-demo", "-out", "/dev/full"); code != 1 || !strings.Contains(stderr, "write /dev/full") {
			t.Fatalf("exit %d, stderr %q; want 1 naming /dev/full", code, stderr)
		}
	})
}

// TestPredictNamesInputLine: predict labels vectors as it reads them, and a
// vector it cannot classify is reported by its input line, counting the
// blank lines before it.
func TestPredictNamesInputLine(t *testing.T) {
	model := filepath.Join(t.TempDir(), "m.karl")
	if code, stderr := runKarl("train", "-demo", "-out", model); code != 0 {
		t.Fatalf("train: exit %d, stderr %q", code, stderr)
	}
	var stdout, stderr bytes.Buffer
	e := &env{stdin: strings.NewReader("1 1 1\n\n-1 -1 -1\n1 1\n"), stdout: &stdout, stderr: &stderr}
	code := e.main([]string{"predict", "-model", model})
	if code != 1 || !strings.Contains(stderr.String(), "stdin: line 4:") {
		t.Fatalf("exit %d, stderr %q; want 1 naming stdin line 4", code, stderr.String())
	}
	if stdout.String() != "+1\n-1\n" {
		t.Fatalf("stdout %q; want the two labels before the bad line", stdout.String())
	}
}

// TestRecipesParse parses every usage recipe of the command's package doc
// (`karl <verb> …` and the shim's `karl-serve …`) and every `go run
// ./cmd/karl …` line of README.md against its verb's flags, running
// nothing: an undefined flag, a malformed value, a stray argument or (for
// serve) a flag another mode owns fails it.
func TestRecipesParse(t *testing.T) {
	sources := []struct {
		path, prefix string
		verb         string // the verb of a prefix that does not name one
	}{
		{"../../cmd/karl/main.go", "//\tkarl ", ""},
		{"../../cmd/karl-serve/main.go", "//\tkarl-serve ", "serve"},
		{"../../README.md", "go run ./cmd/karl ", ""},
	}
	seen := map[string]bool{}
	for _, src := range sources {
		f, err := os.Open(src.path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		n := 0
		for sc.Scan() {
			line := sc.Text()
			for strings.HasSuffix(line, "\\") && sc.Scan() {
				line = strings.TrimSuffix(line, "\\") + sc.Text()
			}
			i := strings.Index(line, src.prefix)
			if i < 0 {
				continue
			}
			n++
			args := shellWords(line[i+len(src.prefix):])
			if src.verb != "" {
				args = append([]string{src.verb}, args...)
			}
			if len(args) == 0 || verbs[args[0]].define == nil {
				t.Errorf("%s: %q names no verb", src.path, line)
				continue
			}
			seen[args[0]] = true
			fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			verbs[args[0]].define(fs, &env{})
			err := fs.Parse(args[1:])
			if err == nil && fs.NArg() > 0 {
				t.Errorf("%s: %q: unexpected argument %q", src.path, line, fs.Arg(0))
			}
			if err == nil && args[0] == "serve" {
				err = validateFlagSet(ownership(fs).set)
			}
			if err != nil {
				t.Errorf("%s: %q: %v", src.path, line, err)
			}
		}
		f.Close()
		if n == 0 {
			t.Errorf("%s holds no %q recipe", src.path, src.prefix)
		}
	}
	for name := range verbs {
		if !seen[name] {
			t.Errorf("no recipe shows karl %s", name)
		}
	}
}

// shellWords splits a recipe the way a shell would split its arguments:
// quotes group, and a comment, a redirection, a pipe or a control operator
// ends it.
func shellWords(s string) []string {
	var words []string
	var word strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
		case strings.ContainsRune("#<>|&;`", r):
			if inWord {
				words = append(words, word.String())
			}
			return words
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}
