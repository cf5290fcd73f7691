package main

import (
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	const gc = 10 * time.Minute
	cases := []struct {
		name        string
		trace, dir  string
		ingest      bool
		onlineEvery time.Duration
		gcEvery     time.Duration
		wantErr     string // substring; empty = accepted
	}{
		{name: "trace mode", trace: "t.csv", gcEvery: gc},
		{name: "artifact mode", dir: "models", gcEvery: gc},
		{name: "online retrain with ingest", trace: "t.csv", ingest: true, onlineEvery: time.Minute, gcEvery: gc},
		{name: "neither source", gcEvery: gc, wantErr: "one of -trace or -model-dir"},
		{name: "both sources", trace: "t.csv", dir: "models", gcEvery: gc, wantErr: "mutually exclusive"},
		{name: "online retrain without ingest", trace: "t.csv", onlineEvery: time.Minute, gcEvery: gc, wantErr: "requires -ingest"},
		{name: "zero session-gc", trace: "t.csv", gcEvery: 0, wantErr: "-session-gc must be positive"},
		{name: "negative session-gc", trace: "t.csv", gcEvery: -time.Second, wantErr: "-session-gc must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.trace, tc.dir, tc.ingest, tc.onlineEvery, tc.gcEvery)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}
