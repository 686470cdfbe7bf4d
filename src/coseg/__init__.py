"""coseg: desk-scale common-object discovery.

Proposal geometry, a twin-encoder embedding model trained with a contrastive
loss, a random-projection-tree nearest-neighbor index, similarity retrieval,
pixel-level segmentation metrics, and collage rendering, tied together by a
staged pipeline and CLI.
"""

__version__ = "0.1.0"
