package main

import (
	"strings"
	"testing"
)

func TestParseShards(t *testing.T) {
	specs, err := parseShards("http://a:8080, http://b:8080|http://b2:8080 ,http://c:8080/")
	if err != nil {
		t.Fatalf("parseShards: %v", err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d shards, want 3", len(specs))
	}
	if specs[0].Client.Name() != "http://a:8080" || len(specs[0].Followers) != 0 {
		t.Fatalf("shard 0: %q %d followers", specs[0].Client.Name(), len(specs[0].Followers))
	}
	if len(specs[1].Followers) != 1 || specs[1].Followers[0].Name() != "http://b2:8080" {
		t.Fatalf("shard 1 followers wrong: %+v", specs[1].Followers)
	}
	if specs[2].Client.Name() != "http://c:8080" {
		t.Fatalf("trailing slash not trimmed: %q", specs[2].Client.Name())
	}

	if _, err := parseShards(""); err == nil {
		t.Fatal("empty -shards should fail")
	}
	if _, err := parseShards("http://a:8080,,http://c:8080"); err == nil {
		t.Fatal("empty entry should fail")
	}
}

// TestValidateFlagSet pins the flag-ownership table: every serving mode
// rejects flags owned by a different mode with an error naming the
// owner, and accepts its own flags.
func TestValidateFlagSet(t *testing.T) {
	cases := []struct {
		name string
		set  []string
		want []string // substrings the error must contain; empty = no error
	}{
		{"plain model", []string{"model", "addr", "pool"}, nil},
		{"mutable", []string{"mutable", "gamma", "seal-size", "window"}, nil},
		{"coordinator", []string{"coordinator", "shards", "shard-timeout"}, nil},
		{"writable coordinator", []string{"coordinator", "mutable", "shards", "partition", "manifest"}, nil},
		{"engine flags on coordinator", []string{"coordinator", "shards", "gamma", "pool"},
			[]string{"-gamma only applies to a shard process", "-pool only applies to a shard process"}},
		{"partition without mutable", []string{"coordinator", "shards", "partition"},
			[]string{"-partition only applies to -coordinator -mutable"}},
		{"shards without coordinator", []string{"model", "shards"},
			[]string{"-shards only applies to -coordinator"}},
		{"mutable flags without mutable", []string{"model", "seal-size", "decay-halflife"},
			[]string{"-seal-size only applies to -mutable", "-decay-halflife only applies to -mutable"}},
		{"sketch tier on mutable", []string{"mutable", "sketch-eps"},
			[]string{"-sketch-eps only applies to an immutable engine"}},
		{"replication follower", []string{"mutable", "replica-of", "addr-file"}, nil},
		{"spawning writable coordinator", []string{"coordinator", "mutable", "shards", "spawn", "manifest"}, nil},
		{"replica-of without mutable", []string{"model", "replica-of"},
			[]string{"-replica-of only applies to -mutable"}},
		{"replica-of on coordinator", []string{"coordinator", "mutable", "shards", "replica-of"},
			[]string{"-replica-of only applies to a shard process"}},
		{"follower with local seed", []string{"mutable", "replica-of", "model"},
			[]string{"-model only applies to a leader shard"}},
		{"spawn without coordinator", []string{"mutable", "spawn"},
			[]string{"-spawn only applies to -coordinator -mutable"}},
		{"spawn on read-only coordinator", []string{"coordinator", "shards", "spawn"},
			[]string{"-spawn only applies to -coordinator -mutable"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := validateFlagSet(set)
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error mentioning %v", tc.want)
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("error %q missing %q", err, sub)
				}
			}
		})
	}
}
