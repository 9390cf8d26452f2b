package service

import (
	"testing"

	"ftdag/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
