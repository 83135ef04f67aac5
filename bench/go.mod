module ftnoc/bench

go 1.22

require ftnoc v0.0.0

replace ftnoc => ../
