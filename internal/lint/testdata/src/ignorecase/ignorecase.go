// Golden case for the suppression machinery: a reasoned //lint:ignore on
// the line above (or trailing on) a finding suppresses it; an unused or
// malformed directive is itself a finding, and so is a //lint: word that no
// analyzer reads.
package ignorecase

import "os"

func suppressed(f *os.File) {
	//lint:ignore errsink golden case: the close error is acknowledged by the caller's recovery path
	f.Close()
}

func trailing(f *os.File) {
	f.Sync() //lint:ignore errsink golden case: a trailing suppression on the offending line
}

func stale(f *os.File) error {
	//lint:ignore errsink this excuses nothing // want:ignore: unused //lint:ignore errsink suppression
	return f.Close()
}

// want+2:ignore: malformed //lint:ignore
//
//lint:ignore
func alsoFine() {}

// want+2:ignore: unknown directive //lint:pure
//
//lint:pure a directive no analyzer reads
func unread() {}
