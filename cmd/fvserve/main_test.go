package main

import (
	"errors"
	"flag"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestHelpReturnsErrHelp pins the -h contract: run surfaces flag.ErrHelp
// (which main turns into a clean exit 0) after printing usage to stderr.
func TestHelpReturnsErrHelp(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-h"}, &stdout, &stderr)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	for _, want := range []string{"-addr", "-engines", "-selftest", "-deadline", "-drain-timeout"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("usage output missing %s:\n%s", want, stderr.String())
		}
	}
}

// TestRunCLIValidation drives the flag matrix: invalid values must produce
// a usage error before any listener or engine comes up.
func TestRunCLIValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error
	}{
		{"zero cache", []string{"-cache", "0"}, "-cache must be positive"},
		{"negative cache", []string{"-cache", "-2"}, "-cache must be positive"},
		{"zero engines", []string{"-engines", "0"}, "-engines must be positive"},
		{"zero queue", []string{"-queue", "0"}, "-queue must be positive"},
		{"zero batch", []string{"-batch", "0"}, "-batch must be positive"},
		{"negative rate", []string{"-rate", "-1"}, "-rate must be non-negative"},
		{"negative burst", []string{"-burst", "-1"}, "-burst must be non-negative"},
		{"negative requests", []string{"-selftest", "-requests", "-1"}, "-requests must be non-negative"},
		{"negative arrival rate", []string{"-selftest", "-arrival-rate", "-1"}, "-arrival-rate must be non-negative"},
		{"negative deadline", []string{"-deadline", "-3s"}, "-deadline must be non-negative"},
		{"negative drain timeout", []string{"-drain-timeout", "-1s"}, "-drain-timeout must be non-negative"},
		{"bad flag value", []string{"-queue", "many"}, "invalid value"},
		{"undefined flag", []string{"-bogus"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			err := run(c.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%v) accepted, want error containing %q", c.args, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("run(%v) error %q does not contain %q", c.args, err, c.wantErr)
			}
		})
	}
}

// TestHTTPServerTimeouts pins the daemon's connection timeouts: all three
// are set, and the whole-request read timeout leaves room to upload a
// maximal body at 1 Mbit/s several times over.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts header/read/idle = %v/%v/%v, want all set",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.ReadHeaderTimeout > hs.ReadTimeout {
		t.Errorf("header timeout %v exceeds the whole-request timeout %v", hs.ReadHeaderTimeout, hs.ReadTimeout)
	}
	slowUpload := time.Duration(serve.MaxBodyBytes*8) * time.Microsecond // 1 Mbit/s
	if hs.ReadTimeout < 4*slowUpload {
		t.Errorf("ReadTimeout %v is under 4× a %d-byte upload at 1 Mbit/s (%v)", hs.ReadTimeout, serve.MaxBodyBytes, slowUpload)
	}
}
