module ftdag/bench

go 1.22

require ftdag v0.0.0

replace ftdag => ../
