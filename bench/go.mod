module karl/bench

go 1.22

require karl v0.0.0

replace karl => ../
