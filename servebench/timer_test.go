package main

import (
	"testing"
	"time"
)

func TestSleeperWakesAtItsTime(t *testing.T) {
	s, err := newSleeper()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for _, d := range []time.Duration{-time.Millisecond, 300 * time.Microsecond, 3 * time.Millisecond} {
		due := time.Now().Add(d)
		if err := s.until(due); err != nil {
			t.Fatal(err)
		}
		if early := time.Until(due); early > 0 {
			t.Errorf("sleep of %v woke %v early", d, early)
		}
	}
}
