package server

import (
	"errors"
	"strings"
	"testing"
)

// TestTypedErrors pins the typed replies' error text, sentinel
// unwrapping, and errors.As extraction — the contract retry loops and
// redirect handling are written against.
func TestTypedErrors(t *testing.T) {
	var err error = &BusyError{Session: "fast"}
	if !errors.Is(err, ErrBusy) {
		t.Fatal("BusyError does not unwrap to ErrBusy")
	}
	var be *BusyError
	if !errors.As(err, &be) || be.Session != "fast" {
		t.Fatalf("errors.As lost the session: %+v", be)
	}
	if msg := err.Error(); !strings.Contains(msg, `"fast"`) || !strings.Contains(msg, "busy") {
		t.Fatalf("BusyError text = %q", msg)
	}

	err = &MovedError{Addr: "127.0.0.1:7408"}
	if !errors.Is(err, ErrMoved) {
		t.Fatal("MovedError does not unwrap to ErrMoved")
	}
	var me *MovedError
	if !errors.As(err, &me) || me.Addr != "127.0.0.1:7408" {
		t.Fatalf("errors.As lost the address: %+v", me)
	}
	if msg := err.Error(); !strings.Contains(msg, "127.0.0.1:7408") || !strings.Contains(msg, "moved") {
		t.Fatalf("MovedError text = %q", msg)
	}

	err = respError("ERR too large: line exceeds 1048576 bytes")
	if !errors.Is(err, ErrTooLarge) || !strings.Contains(err.Error(), "line exceeds") {
		t.Fatalf("too-large reply decodes to %v, want ErrTooLarge", err)
	}
	if errors.Is(respError("ERR bad timestamp \"x\""), ErrTooLarge) {
		t.Fatal("a plain ERR decodes as ErrTooLarge")
	}
}
