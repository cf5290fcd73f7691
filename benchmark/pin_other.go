//go:build !linux

package main

import "errors"

func pinAndReexec() error { return errors.New("CPU pinning needs Linux") }
