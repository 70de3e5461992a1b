# A four-stage pipeline that recurses forever: each stage joins the next
# round as soon as it has passed its value on, so the head of the pipeline
# runs a round ahead of the tail and the search revisits configurations.
def R(p0, p1, p2, p3, p4) {
  p0.0 -> p1.x;
  p1.x -> p2.x;
  p2.x -> p3.x;
  p3.x -> p4.x;
  call R
}

main {
  call R
}
