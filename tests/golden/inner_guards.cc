# r decides a conditional of its own in both branches, on different guards.
main {
  if p.true then {
    if r.x <= 0 then { end } else { end }
  } else {
    if r.x <= 1 then { end } else { end }
  }
}
