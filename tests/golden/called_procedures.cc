# r calls a different procedure in each branch.
def X(r) { end }
def Y(r) { end }
main {
  if p.true then { call X } else { call Y }
}
