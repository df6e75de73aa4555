"""Tour of the oriented-box geometry: corners, rotated IoU, rotated NMS."""

import math

from orientkit import OrientedBox, rotated_iou, rotated_nms

# An oriented box is (cx, cy, w, h, theta). Angles are radians,
# counter-clockwise on screen, normalized into (-pi/2, pi/2].
upright = OrientedBox(cx=0.5, cy=0.5, w=1.0, h=1.0, theta=0.0)
tilted = OrientedBox(cx=0.5, cy=0.5, w=1.0, h=1.0, theta=math.pi / 4)

print("upright corners:")
print(upright.corners())
print("tilted corners:")
print(tilted.corners())

# A unit square against its own 45-degree rotation overlaps in a regular
# octagon of area 2(sqrt(2)-1) ~ 0.8284, giving IoU ~ 0.7071.
print(f"\nIoU(upright, tilted) = {rotated_iou(upright, tilted):.6f}")

# Angles that differ by pi describe the same rectangle.
flipped = OrientedBox(0.5, 0.5, 1.0, 1.0, theta=math.pi / 4 + math.pi)
print(f"theta normalized:      {flipped.theta:.6f} (same box, IoU = "
      f"{rotated_iou(tilted, flipped):.6f})")

# Greedy rotated NMS: highest score first, suppress anything whose IoU
# with a kept box exceeds the threshold.
proposals = [
    OrientedBox(10, 10, 8, 12, 0.2),
    OrientedBox(11, 10, 8, 12, 0.25),   # heavy overlap with the first
    OrientedBox(40, 10, 8, 12, -0.3),   # far away, survives
    OrientedBox(10.5, 10, 8, 12, 0.2),  # heavy overlap again
]
scores = [0.90, 0.85, 0.60, 0.95]
kept = rotated_nms(proposals, scores, iou_threshold=0.5)
print(f"\nNMS kept indices (by descending score): {kept}")
for i in kept:
    print(f"  box {i}: score {scores[i]:.2f}, center "
          f"({proposals[i].cx:.1f}, {proposals[i].cy:.1f})")
