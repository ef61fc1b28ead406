module lfo/bench

go 1.22

require lfo v0.0.0

replace lfo => ../
