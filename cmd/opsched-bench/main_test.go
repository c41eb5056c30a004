package main

import (
	"strings"
	"testing"
)

func TestParseMixes(t *testing.T) {
	mixes, err := parseMixes("resnet,lstm; inception , dcgan ;;")
	if err != nil {
		t.Fatal(err)
	}
	if len(mixes) != 2 {
		t.Fatalf("got %d mixes, want 2", len(mixes))
	}
	if got := strings.Join(mixes[0].Models, "+"); got != "ResNet-50+LSTM" {
		t.Fatalf("mix 0 canonicalized to %q", got)
	}
	if _, err := parseMixes(" ; , "); err == nil {
		t.Fatal("empty spec: want error")
	}
	if _, err := parseMixes("no-such-model"); err == nil {
		t.Fatal("unknown model: want error")
	}
}

func TestParseArbiters(t *testing.T) {
	all, err := parseArbiters("all")
	if err != nil || len(all) == 0 {
		t.Fatalf("all: %v, %v", all, err)
	}
	some, err := parseArbiters(" fair , priority ")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0] != "fair" || some[1] != "priority" {
		t.Fatalf("got %v", some)
	}
}
