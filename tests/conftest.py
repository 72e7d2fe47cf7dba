from hypothesis import settings

# Timing varies with the host's load and with the size of each drawn example;
# per-example deadlines add noise without catching anything here.
settings.register_profile("infoagree", deadline=None, max_examples=100)
settings.load_profile("infoagree")
