//go:build linux

package store

import (
	"os"
	"syscall"
	"testing"
	"time"
)

// TestDiskSlowReadDoesNotBlockOthers makes one entry a FIFO, so a Get of
// it blocks in open(2) until a writer appears. A Put and a Get of other
// digests must not wait for that read: the store's lock does not cover
// file I/O.
func TestDiskSlowReadDoesNotBlockOthers(t *testing.T) {
	d, _ := openTestDisk(t, 0)
	if err := d.Put(digestN(2), []byte("two")); err != nil {
		t.Fatal(err)
	}
	fifo := d.path(digestN(1))
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	stuck := make(chan struct{})
	go func() {
		defer close(stuck)
		d.Get(digestN(1))
	}()
	// A head start, not synchronization: the reader should be in open(2)
	// before the others start. Were it not, the others would finish first
	// and the test would pass even on a store that reads under its lock.
	time.Sleep(50 * time.Millisecond)

	others := make(chan struct{})
	go func() {
		defer close(others)
		if err := d.Put(digestN(3), []byte("three")); err != nil {
			t.Errorf("Put: %v", err)
		}
		if got, ok := d.Get(digestN(2)); !ok || string(got) != "two" {
			t.Errorf("Get = (%q, %t), want stored bytes", got, ok)
		}
	}()
	select {
	case <-others:
	case <-time.After(2 * time.Second):
		t.Error("Put and Get of other digests waited on a blocked read")
	}

	// Unblock the reader: opening the FIFO for writing lets its open(2)
	// return, and closing it gives the read an EOF.
	w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	<-stuck
	<-others
}
